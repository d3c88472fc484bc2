package goflow_test

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/urbancivics/goflow/internal/cluster"
	"github.com/urbancivics/goflow/internal/goflow"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/predict"
	"github.com/urbancivics/goflow/internal/series"
	"github.com/urbancivics/goflow/internal/storage"
	"github.com/urbancivics/goflow/internal/wal"
)

// TestMetricCatalog holds DESIGN.md §5's metric catalog and the server
// to each other: every family a fully instrumented server registers —
// goflow.Instrument with forecasts on, InstrumentWAL, InstrumentSeries,
// the REST middleware and cluster.NewMetrics — has a row, with its
// type, and every row names a registered family.
func TestMetricCatalog(t *testing.T) {
	local, err := storage.OpenLocal(storage.LocalOptions{
		WALDir: t.TempDir(),
		Policy: wal.FsyncNone,
		Series: &storage.SeriesOptions{Options: series.Options{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	broker := mq.NewBroker()
	server, err := goflow.NewServer(goflow.ServerConfig{Broker: broker, Data: local, Predict: &predict.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Shutdown()
		broker.Close()
		if err := local.Close(); err != nil {
			t.Error(err)
		}
	})
	reg := obs.NewRegistry()
	m := goflow.Instrument(reg, server, local.Store())
	m.InstrumentWAL(local.WAL())
	m.InstrumentSeries(local.Series())
	goflow.NewInstrumentedHTTPHandler(server, reg)
	cluster.NewMetrics(reg)
	registered := map[string]string{}
	for _, f := range reg.Snapshot() {
		registered[f.Name] = f.Type
	}

	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	start := strings.Index(text, "\n## 5. Observability")
	end := strings.Index(text, "\n## 6.")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §5 followed by §6")
	}
	name := regexp.MustCompile("`([a-z_][a-z0-9_]*)`")
	documented := map[string]bool{}
	for _, line := range strings.Split(text[start:end], "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		kind := strings.TrimSpace(cells[2])
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			documented[m[1]] = true
			got, ok := registered[m[1]]
			switch {
			case !ok:
				t.Errorf("DESIGN.md §5 catalogs %s, which the server does not register", m[1])
			case got != kind:
				t.Errorf("DESIGN.md §5 catalogs %s as a %s; it is a %s", m[1], kind, got)
			}
		}
	}
	var missing []string
	for n := range registered {
		if !documented[n] {
			missing = append(missing, n)
		}
	}
	slices.Sort(missing)
	if len(missing) > 0 {
		t.Errorf("%d registered families have no row in DESIGN.md §5's catalog:\n\t%s", len(missing), strings.Join(missing, "\n\t"))
	}
}
