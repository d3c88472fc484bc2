package goflow

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func seededDataManager(t *testing.T, n int) (*DataManager, *Accounts) {
	t.Helper()
	dm, accounts := newDataManager(t)
	if _, err := accounts.RegisterApp("SC", "SoundCity", DataPolicy{
		SharedFields: []string{"spl", "sensedAt", "localized"},
	}); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2016, 2, 1, 10, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		o := obsAt(t, "LGE NEXUS 5", 40+float64(i%50), i%2 == 0, base.Add(time.Duration(i)*time.Minute))
		if _, err := dm.Ingest("SC", "c1", o, o.SensedAt); err != nil {
			t.Fatal(err)
		}
	}
	return dm, accounts
}

func TestExportNDJSON(t *testing.T) {
	dm, _ := seededDataManager(t, 25)
	var buf bytes.Buffer
	n, err := dm.Export(t.Context(), &buf, "SC", "SC", Query{}, NDJSON)
	if err != nil || n != 25 {
		t.Fatalf("Export = %d, %v", n, err)
	}
	scanner := bufio.NewScanner(&buf)
	lines := 0
	for scanner.Scan() {
		var doc map[string]any
		if err := json.Unmarshal(scanner.Bytes(), &doc); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		if doc["spl"] == nil {
			t.Fatalf("line %d missing spl: %v", lines, doc)
		}
		lines++
	}
	if lines != 25 {
		t.Fatalf("exported %d lines, want 25", lines)
	}
}

func TestExportCSV(t *testing.T) {
	dm, _ := seededDataManager(t, 10)
	var buf bytes.Buffer
	n, err := dm.Export(t.Context(), &buf, "SC", "SC", Query{}, CSV)
	if err != nil || n != 10 {
		t.Fatalf("Export = %d, %v", n, err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 11 { // header + rows
		t.Fatalf("csv rows = %d, want 11", len(records))
	}
	header := records[0]
	colIdx := -1
	for i, c := range header {
		if c == "spl" {
			colIdx = i
		}
		if i > 0 && header[i-1] > c {
			t.Fatal("header columns must be sorted")
		}
	}
	if colIdx < 0 {
		t.Fatalf("header misses spl: %v", header)
	}
	if records[1][colIdx] == "" {
		t.Fatal("spl cell empty")
	}
}

func TestExportPagination(t *testing.T) {
	// More documents than one export page: paging must cover all.
	dm, _ := seededDataManager(t, exportPageSize+50)
	var buf bytes.Buffer
	n, err := dm.Export(t.Context(), &buf, "SC", "SC", Query{}, NDJSON)
	if err != nil || n != exportPageSize+50 {
		t.Fatalf("Export = %d, %v, want %d", n, err, exportPageSize+50)
	}
}

func TestExportAppliesPolicyForForeignApps(t *testing.T) {
	dm, _ := seededDataManager(t, 5)
	var buf bytes.Buffer
	if _, err := dm.Export(t.Context(), &buf, "SC", "OTHER", Query{}, NDJSON); err != nil {
		t.Fatal(err)
	}
	scanner := bufio.NewScanner(&buf)
	for scanner.Scan() {
		var doc map[string]any
		if err := json.Unmarshal(scanner.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if _, has := doc["deviceModel"]; has {
			t.Fatal("foreign export leaked an unshared field")
		}
		if _, has := doc["userId"]; has {
			t.Fatal("foreign export leaked the user id")
		}
		if _, has := doc["spl"]; !has {
			t.Fatal("foreign export misses shared field")
		}
	}
}

func TestExportFilterApplies(t *testing.T) {
	dm, _ := seededDataManager(t, 20)
	loc := true
	var buf bytes.Buffer
	n, err := dm.Export(t.Context(), &buf, "SC", "SC", Query{Localized: &loc}, NDJSON)
	if err != nil || n != 10 {
		t.Fatalf("filtered export = %d, %v, want 10", n, err)
	}
}

func TestParseExportFormat(t *testing.T) {
	if f, err := ParseExportFormat(""); err != nil || f != NDJSON {
		t.Fatal("empty format must default to ndjson")
	}
	if f, err := ParseExportFormat("csv"); err != nil || f != CSV {
		t.Fatal("csv format")
	}
	if _, err := ParseExportFormat("xml"); err == nil {
		t.Fatal("unknown format must fail")
	}
}

func TestRESTExportEndpoint(t *testing.T) {
	server, ts := newAPI(t)
	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{SharedFields: []string{"spl"}}); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2016, 2, 1, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 7; i++ {
		o := obsAt(t, "A", 50, false, base.Add(time.Duration(i)*time.Hour))
		if _, err := server.Data.Ingest("SC", "c1", o, o.SensedAt); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/apps/SC/observations/export?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("export status=%d type=%q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(strings.TrimSpace(string(body)), "\n") + 1; lines != 7 {
		t.Fatalf("exported %d lines, want 7", lines)
	}
	// CSV variant.
	respCSV, err := http.Get(ts.URL + "/v1/apps/SC/observations/export?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = respCSV.Body.Close() }()
	if respCSV.Header.Get("Content-Type") != "text/csv" {
		t.Fatalf("csv content type = %q", respCSV.Header.Get("Content-Type"))
	}
	// Bad format.
	respBad, err := http.Get(ts.URL + "/v1/apps/SC/observations/export?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = respBad.Body.Close() }()
	if respBad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad format status = %d", respBad.StatusCode)
	}
}
