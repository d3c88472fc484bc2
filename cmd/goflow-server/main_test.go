package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	gfclient "github.com/urbancivics/goflow/internal/client"
	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/sensing"
)

func TestParseMembers(t *testing.T) {
	members, err := parseMembers("n1=h1:7700, n2=h2:7700,n3=h3:7700")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 3 || members["n2"] != "h2:7700" {
		t.Fatalf("parsed %v", members)
	}
	for _, bad := range []string{"", "n1", "n1=", "=addr", "n1=a,n1=b"} {
		if _, err := parseMembers(bad); err == nil {
			t.Errorf("parseMembers(%q) accepted", bad)
		}
	}
}

// TestFlagCount pins the server's knobs: a new flag has to change this
// test, and the package comment's flag map with it.
func TestFlagCount(t *testing.T) {
	n := 0
	flagSet(new(options)).VisitAll(func(*flag.Flag) { n++ })
	if n != 19 {
		t.Fatalf("goflow-server has %d flags, want 19", n)
	}
}

// TestRunBootsEveryShape boots each engine topology through run on
// loopback ports, writes one observation over REST, stops, boots again
// on the same directory and counts what was acknowledged.
func TestRunBootsEveryShape(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		dirs   []string // must exist under -wal-dir after the first run
		cursor int      // status of a ?cursor= walk: only the router has no global scan order
	}{
		{name: "single", args: []string{"-series", "-predict"}, cursor: http.StatusOK},
		{name: "shards=2", args: []string{"-shards", "2", "-series", "-predict"}, dirs: []string{"shard-0", "shard-1"}, cursor: http.StatusNotImplemented},
		{name: "election", args: []string{"-election", "n1=127.0.0.1:0", "-node-name", "n1", "-lease-ttl", "100ms", "-series"}, cursor: http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append([]string{"-wal-dir", dir}, tc.args...)
			s := boot(t, args...)
			if code := s.get(t, "/v1/healthz", nil); code != http.StatusOK {
				t.Fatalf("healthz = %d", code)
			}
			// An election node refuses writes until it has elected itself.
			deadline := time.Now().Add(10 * time.Second)
			for code := s.postObservation(t); code != http.StatusCreated; code = s.postObservation(t) {
				if time.Now().After(deadline) {
					t.Fatalf("ingest = %d, want 201\n%s", code, s.log)
				}
				time.Sleep(20 * time.Millisecond)
			}
			if strings.Contains(tc.name, "election") {
				for _, line := range []string{"cluster: node n1: leading at term 1", "ingest started"} {
					if !strings.Contains(s.log.String(), line) {
						t.Fatalf("election log lacks %q:\n%s", line, s.log)
					}
				}
			}
			var page struct {
				Observations []struct{ SPL float64 }
			}
			if code := s.get(t, "/v1/apps/SC/observations?cursor=", &page); code != tc.cursor {
				t.Fatalf("cursor page = %d, want %d", code, tc.cursor)
			}
			if tc.cursor == http.StatusOK && (len(page.Observations) != 1 || page.Observations[0].SPL != 61) {
				t.Fatalf("cursor page = %+v, want the posted observation", page)
			}
			if err := s.halt(t); err != nil {
				t.Fatalf("run: %v\n%s", err, s.log)
			}
			for _, d := range tc.dirs {
				if _, err := os.Stat(filepath.Join(dir, d, "snapshot.gob")); err != nil {
					t.Errorf("shard layout: %v", err)
				}
			}

			s = boot(t, args...)
			var count struct{ Count int }
			if code := s.get(t, "/v1/apps/SC/observations/count", &count); code != http.StatusOK || count.Count != 1 {
				t.Fatalf("count after reboot = %d (status %d), want 1", count.Count, code)
			}
			if err := s.halt(t); err != nil {
				t.Fatalf("run: %v\n%s", err, s.log)
			}
		})
	}
}

// TestRunReturnsFinalCheckpointError: a final checkpoint that cannot
// publish its snapshot fails run in every shape; a sharded server must
// not report it and exit 0.
func TestRunReturnsFinalCheckpointError(t *testing.T) {
	for _, tc := range []struct {
		name, snapshot string
		args           []string
	}{
		{name: "single", snapshot: "snapshot.gob"},
		{name: "shards=2", snapshot: "shard-0/snapshot.gob", args: []string{"-shards", "2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := boot(t, append([]string{"-wal-dir", dir}, tc.args...)...)
			// A non-empty directory where the snapshot goes: the rename
			// that publishes it fails.
			if err := os.MkdirAll(filepath.Join(dir, tc.snapshot, "blocker"), 0o755); err != nil {
				t.Fatal(err)
			}
			err := s.halt(t)
			if err == nil || !strings.Contains(err.Error(), "final checkpoint") {
				t.Fatalf("run = %v, want a final checkpoint error", err)
			}
		})
	}
}

// TestHaltStoresAcknowledgedPublishes: a stop signal right after a
// burst of broker publishes loses none the broker acknowledged. The
// listener closes before ingest stops, and ingest stores everything GF
// holds before its consumer goes.
func TestHaltStoresAcknowledgedPublishes(t *testing.T) {
	dir := t.TempDir()
	s := boot(t, "-wal-dir", dir)
	resp, err := client.Post(s.base+"/v1/apps/SC/login", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	var login struct{ ID, Exchange string }
	err = json.NewDecoder(resp.Body).Decode(&login)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("login = %d, %v", resp.StatusCode, err)
	}
	conn, err := mq.Dial(s.mqAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	phone := gfclient.NewMQTransport(conn, login.Exchange, "SC", login.ID)
	acked := 0
	for acked < 2000 {
		batch := make([]*sensing.Observation, 50)
		for i := range batch {
			batch[i] = observation(login.ID, 40+float64((acked+i)%50))
		}
		if err := phone.Send(batch, time.Now()); err != nil {
			t.Fatalf("publish after %d acknowledged: %v", acked, err)
		}
		acked += len(batch)
	}
	if err := s.halt(t); err != nil {
		t.Fatalf("run: %v\n%s", err, s.log)
	}

	s = boot(t, "-wal-dir", dir)
	var count struct{ Count int }
	if code := s.get(t, "/v1/apps/SC/observations/count", &count); code != http.StatusOK || count.Count < acked {
		t.Fatalf("stored %d of %d acknowledged publishes (status %d)\n%s", count.Count, acked, code, s.log)
	}
}

// TestRunRejects: flag combinations no engine serves, and every flag
// the one assembly deleted, fail before anything is opened.
func TestRunRejects(t *testing.T) {
	dir := t.TempDir()
	for name, args := range map[string][]string{
		"predict without series":   {"-predict"},
		"election with shards":     {"-wal-dir", dir, "-election", "n1=127.0.0.1:0", "-node-name", "n1", "-shards", "2"},
		"shards without wal-dir":   {"-shards", "2"},
		"election without wal-dir": {"-election", "n1=127.0.0.1:0", "-node-name", "n1"},
		"deleted -data":            {"-data", filepath.Join(dir, "snap")},
		"deleted -follow":          {"-wal-dir", dir, "-follow", "127.0.0.1:1"},
		"deleted -follower-name":   {"-wal-dir", dir, "-follower-name", "r1"},
		"deleted -repl-listen":     {"-wal-dir", dir, "-repl-listen", "127.0.0.1:0"},
		"deleted -sync-followers":  {"-wal-dir", dir, "-sync-followers", "1"},
	} {
		t.Run(name, func(t *testing.T) {
			// A stop already queued makes a wrongly accepted boot return
			// at once instead of hanging the test.
			stop := make(chan os.Signal, 1)
			stop <- os.Interrupt
			err := run(append([]string{"-mq", "127.0.0.1:0", "-http", "127.0.0.1:0"}, args...), stop, new(logBuffer))
			if err == nil {
				t.Fatal("accepted")
			}
			if strings.HasPrefix(name, "deleted") && !strings.Contains(err.Error(), "flag provided but not defined") {
				t.Fatalf("err = %v, want an unknown flag", err)
			}
		})
	}
}

// logBuffer collects run's operator log for the test to read.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// booted is one run in the background.
type booted struct {
	base   string
	mqAddr string
	log    *logBuffer
	stop   chan os.Signal
	done   chan error
	err    error
	halted bool
}

var (
	restAddr = regexp.MustCompile(`REST on (\S+),`)
	mqAddr   = regexp.MustCompile(`broker on (\S+),`)
)

// boot starts run on loopback ports with args and waits for its REST
// address; the test's cleanup stops it if the test did not.
func boot(t *testing.T, args ...string) *booted {
	t.Helper()
	s := &booted{log: new(logBuffer), stop: make(chan os.Signal, 1), done: make(chan error, 1)}
	args = append([]string{"-mq", "127.0.0.1:0", "-http", "127.0.0.1:0", "-metrics-interval", "0"}, args...)
	go func() { s.done <- run(args, s.stop, s.log) }()
	t.Cleanup(func() { _ = s.halt(t) })
	deadline := time.Now().Add(20 * time.Second)
	for {
		if m := restAddr.FindStringSubmatch(s.log.String()); m != nil {
			s.base = "http://" + m[1]
			s.mqAddr = mqAddr.FindStringSubmatch(s.log.String())[1]
			return s
		}
		select {
		case s.err = <-s.done:
			s.halted = true
			t.Fatalf("run exited while booting: %v\n%s", s.err, s.log)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("no REST address after 20s:\n%s", s.log)
		}
	}
}

// halt delivers the shutdown signal once and returns run's result.
func (s *booted) halt(t *testing.T) error {
	t.Helper()
	if !s.halted {
		s.halted = true
		s.stop <- os.Interrupt
		select {
		case s.err = <-s.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("run did not return after its stop signal:\n%s", s.log)
		}
	}
	return s.err
}

var client = &http.Client{Timeout: 10 * time.Second}

// get fetches path, decoding a JSON body into v when v is non-nil.
func (s *booted) get(t *testing.T, path string, v any) int {
	t.Helper()
	resp, err := client.Get(s.base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// observation is one localized observation, sensed a minute ago.
func observation(userID string, spl float64) *sensing.Observation {
	return &sensing.Observation{
		UserID: userID, DeviceModel: "LGE NEXUS 5", AppVersion: "1.3",
		Mode: sensing.Opportunistic, SPL: spl, Activity: sensing.ActivityStill, ActivityConfidence: 0.9,
		SensedAt: time.Now().UTC().Add(-time.Minute).Truncate(time.Second),
		Loc:      &sensing.Location{Point: geo.Point{Lat: 48.8566, Lon: 2.3522}, AccuracyM: 30, Provider: sensing.ProviderNetwork},
	}
}

// postObservation uploads one localized observation over REST.
func (s *booted) postObservation(t *testing.T) int {
	t.Helper()
	body, err := json.Marshal(map[string]any{"clientId": "phone-1", "observations": []*sensing.Observation{observation("u1", 61)}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(s.base+"/v1/apps/SC/observations", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
