package chaostest

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// A cqad keeps one store per database: the in-process partitioning
// knob is gone, so -shards is a usage error (exit status 2), and a data
// directory holding a shard's store files is refused, naming the file,
// instead of being opened as unrelated databases.
func TestCqadHasOneStorePerDatabase(t *testing.T) {
	out, err := exec.Command(cqadBin, "-shards", "2").CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined: -shards") {
		t.Fatalf("cqad -shards 2: %v\n%s", err, out)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.s0.wal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// A cqad that opened the directory would serve until killed.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err = exec.CommandContext(ctx, cqadBin, "-addr", "127.0.0.1:0", "-data", dir).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "x.s0.wal") {
		t.Fatalf("cqad over a shard's store files: %v\n%s", err, out)
	}
}
