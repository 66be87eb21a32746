package main

import (
	"bytes"
	"strings"
	"testing"
)

// Every experiment self-checks its cross-validations and returns an
// error on any mismatch, so running them in quick mode is a meaningful
// regression test of the whole reproduction — which is the paper's
// figures, lemmas and examples, E1–E11, and nothing else.
func TestExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments skipped in -short mode")
	}
	var ids []string
	for _, e := range experiments {
		e := e
		ids = append(ids, e.id)
		t.Run(e.id, func(t *testing.T) {
			if err := e.run(true); err != nil {
				t.Fatalf("%s: %v", e.id, err)
			}
		})
	}
	if got, want := strings.Join(ids, " "), "E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 E11"; got != want {
		t.Fatalf("experiments = %s, want %s", got, want)
	}
}

// A -run id that names no experiment is a usage error, not an empty
// run that exits 0.
func TestRunUnknownExperiment(t *testing.T) {
	for _, arg := range []string{"E12", "E99", "E1,E99", "e1"} {
		var stderr bytes.Buffer
		if code := run([]string{"-run", arg, "-quick"}, &stderr); code != 2 {
			t.Errorf("-run %s: exit %d, want 2", arg, code)
		}
		msg := stderr.String()
		if !strings.Contains(msg, "unknown experiment") || !strings.Contains(msg, "E1, E2,") || !strings.Contains(msg, "E11") {
			t.Errorf("-run %s: stderr %q does not name the valid ids", arg, msg)
		}
	}
	var stderr bytes.Buffer
	if code := run([]string{"-bogus"}, &stderr); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}
