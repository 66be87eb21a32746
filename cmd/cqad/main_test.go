package main

import (
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestLoadDatabases(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"people.db": "R(a | 1)\nR(a | 2)\n",
		"towns.db":  "T(x | y)\n",
		"notes.txt": "ignored",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	dbs, err := loadDatabases(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dbs) != 2 {
		t.Fatalf("loaded %d databases, want 2", len(dbs))
	}
	if dbs["people"] == nil || dbs["people"].Size() != 2 {
		t.Errorf("people database wrong: %v", dbs["people"])
	}
	if dbs["towns"] == nil || dbs["towns"].Relation("T") == nil {
		t.Errorf("towns database wrong")
	}

	if _, err := loadDatabases(""); err != nil {
		t.Errorf("empty dir should be a no-op, got %v", err)
	}
	if _, err := loadDatabases(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing dir should fail")
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.db"), []byte("R(a |"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := loadDatabases(dir); err == nil || !strings.Contains(err.Error(), "bad.db") {
		t.Errorf("bad fact file should fail with its name, got %v", err)
	}
}

// TestParseFlags pins cqad's whole flag set: adding or removing a flag
// changes the literal list below.
func TestParseFlags(t *testing.T) {
	var names []string
	flagSet(&config{}, io.Discard).VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := []string{
		"addr", "addr-file", "checkpoint-every", "data", "dbdir",
		"drain-timeout", "fsync", "max-body", "max-inflight",
		"pprof-addr", "route", "slow-query", "timeout", "trace-buffer",
		"trace-sample", "watch-heartbeat",
	}
	if !slices.Equal(names, want) {
		t.Errorf("flags = %q,\nwant %q", names, want)
	}

	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-max-inflight", "7", "-timeout", "2s", "-pprof-addr", "127.0.0.1:0"}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != "127.0.0.1:0" || cfg.maxInFlight != 7 || cfg.timeout != 2*time.Second || cfg.pprofAddr != "127.0.0.1:0" {
		t.Errorf("cfg = %+v", cfg)
	}
	if _, err := parseFlags([]string{"trailing"}, devNull(t)); err == nil {
		t.Error("trailing args should fail")
	}
	if _, err := parseFlags([]string{"-bogus"}, devNull(t)); err == nil {
		t.Error("unknown flag should fail")
	}
	// An empty -route entry would be a shard with no URL.
	for _, route := range []string{"http://127.0.0.1:9,,", ",http://127.0.0.1:9", "http://127.0.0.1:9, ,http://127.0.0.1:10"} {
		if _, err := parseFlags([]string{"-route", route}, devNull(t)); err == nil || !strings.Contains(err.Error(), "empty -route entry") {
			t.Errorf("-route %q: err = %v, want an empty-entry error", route, err)
		}
	}
	if cfg, err := parseFlags([]string{"-route", "http://127.0.0.1:9, http://127.0.0.1:10"}, devNull(t)); err != nil || len(splitList(cfg.route)) != 2 {
		t.Errorf("two-shard -route: %v", err)
	}
	// Deleted knobs: profiling lives on -pprof-addr only, the plan cache
	// has a fixed capacity, there is no batch worker pool to size, and
	// there is no replication.
	for _, args := range [][]string{{"-pprof"}, {"-cache-size", "16"}, {"-workers", "4"},
		{"-follow", "http://127.0.0.1:1"}, {"-follower-id", "f"}, {"-route-replicas", "http://127.0.0.1:1"}} {
		_, err := parseFlags(args, devNull(t))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: err = %v, want an undefined flag", args, err)
		}
	}
}

func devNull(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestRunServesAndDrains boots the daemon on a random port with a
// -pprof-addr listener, checks a round-trip and a profiling fetch,
// sends itself SIGTERM, and expects a clean exit.
func TestRunServesAndDrains(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "people.db"), []byte("R(a | 1)\nR(a | 2)\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(dir, "addr")
	// Reserve a loopback port for the profiling listener.
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pprofAddr := pln.Addr().String()
	pln.Close()
	cfg, err := parseFlags([]string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-dbdir", dir,
		"-drain-timeout", "5s", "-pprof-addr", pprofAddr,
	}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- run(cfg) }()

	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatal("daemon did not write the addr file in time")
		}
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addr = strings.TrimSpace(string(b))
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	resp, err := http.Post("http://"+addr+"/v1/certain", "application/json",
		strings.NewReader(`{"query": "R(x | y)", "database": "people"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"certain":true`) {
		t.Fatalf("round-trip: %d %s", resp.StatusCode, body)
	}
	// The pprof listener is up before the API listener.
	resp, err = http.Get("http://" + pprofAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(body) == 0 {
		t.Fatalf("pprof cmdline on -pprof-addr: %d %q", resp.StatusCode, body)
	}
	// Runtime memstats come from the heap profile's text form.
	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("http://" + pprofAddr + "/debug/pprof/heap?debug=1"); code != 200 || !strings.Contains(body, "runtime.MemStats") {
		t.Fatalf("heap profile on -pprof-addr: %d, memstats missing", code)
	}
	// The API port's one export is the registry: /metrics lists the
	// daemon's own WAL fsync histogram before any fsync, and there is no
	// expvar document.
	if code, body := get("http://" + addr + "/metrics"); code != 200 || !strings.Contains(body, "wal_fsync_latency_seconds_count 0\n") {
		t.Fatalf("/metrics: %d, wal_fsync_latency missing:\n%s", code, body)
	}
	if code, _ := get("http://" + addr + "/debug/vars"); code != http.StatusNotFound {
		t.Fatalf("GET /debug/vars = %d, want 404", code)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down after SIGTERM")
	}
}
