package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDB(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "facts.db")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestClassifyCommand(t *testing.T) {
	var out bytes.Buffer
	if err := classify([]string{"P(x | y), !N('c' | y)"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"verdict:         FO", "weakly-guarded:  true", "N -> P", "rewriting:"} {
		if !strings.Contains(s, frag) {
			t.Errorf("classify output lacks %q:\n%s", frag, s)
		}
	}
}

func TestClassifyHardQuery(t *testing.T) {
	var out bytes.Buffer
	if err := classify([]string{"R(x | y), !S(y | x)"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "NL-hard") {
		t.Errorf("classify output lacks hardness:\n%s", out.String())
	}
}

func TestClassifyOutOfScope(t *testing.T) {
	var out bytes.Buffer
	if err := classify([]string{"X(x), Y(y), !R(x | y), !S(y | x)"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Theorem 4.3 does not decide") {
		t.Errorf("classify output lacks out-of-scope note:\n%s", out.String())
	}
}

func TestClassifyArgErrors(t *testing.T) {
	var out bytes.Buffer
	if err := classify(nil, &out); err == nil {
		t.Error("no arguments should fail")
	}
	if err := classify([]string{"bad("}, &out); err == nil {
		t.Error("parse error should surface")
	}
}

func TestAttackCommand(t *testing.T) {
	var out bytes.Buffer
	if err := attackCmd([]string{"P(x | y), !N('c' | y)"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"N:", "F⊕", "witness"} {
		if !strings.Contains(s, frag) {
			t.Errorf("attack output lacks %q:\n%s", frag, s)
		}
	}
}

func TestRewriteCommand(t *testing.T) {
	var out bytes.Buffer
	if err := rewriteCmd([]string{"P(x | y), !N('c' | y)"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "∀") {
		t.Errorf("rewriting output looks wrong: %s", out.String())
	}
	if err := rewriteCmd([]string{"R(x | y), !S(y | x)"}, &out); err == nil {
		t.Error("non-FO query should fail")
	}
}

func TestSQLCommand(t *testing.T) {
	var out bytes.Buffer
	if err := sqlCmd([]string{"P(x | y), !N('c' | y)"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "WITH adom(v) AS") {
		t.Errorf("SQL output looks wrong: %s", out.String())
	}
}

func TestEvalCommand(t *testing.T) {
	path := writeDB(t, "R(a | 1)\nR(a | 2)\n")
	for _, engine := range []string{"auto", "rewriting", "direct", "naive"} {
		var out bytes.Buffer
		certain, err := evalCmd([]string{"-engine", engine, "R(x | y)", path}, strings.NewReader(""), &out)
		if err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
		if !certain || strings.TrimSpace(out.String()) != "true" {
			t.Errorf("engine %s: certain=%v output %q, want true", engine, certain, out.String())
		}
	}
	var out bytes.Buffer
	certain, err := evalCmd([]string{"R(x | '1')", "-"}, strings.NewReader("R(a | 1)\nR(a | 2)\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if certain || strings.TrimSpace(out.String()) != "false" {
		t.Errorf("stdin eval certain=%v output %q, want false", certain, out.String())
	}
}

func TestEvalExitCodes(t *testing.T) {
	path := writeDB(t, "R(a | 1)\nR(a | 2)\n")
	empty := writeDB(t, "R(b | 1)\n")
	cases := []struct {
		name  string
		args  []string
		stdin string
		want  int
	}{
		{"certain", []string{"R(x | y)", path}, "", 0},
		{"not certain", []string{"R(x | '1')", path}, "", 1},
		{"batch with one uncertain db", []string{"R(x | '1')", path, empty}, "", 1},
		{"missing db arg", []string{"R(x | y)"}, "", 2},
		{"bad flag", []string{"-bogus", "R(x | y)", path}, "", 2},
		{"unknown engine", []string{"-engine", "bogus", "R(x | y)", path}, "", 2},
		{"retired flag", []string{"-parallel", "R(x | y)", path}, "", 2},
		{"flag conflict", []string{"-engine", "naive", "-stats", "R(x | y)", path}, "", 2},
		{"multi-db conflict", []string{"-engine", "naive", "R(x | y)", path, empty}, "", 2},
		{"deleted -cache flag", []string{"-cache", "R(x | y)", path}, "", 2},
		{"query parse error", []string{"bad(", path}, "", 3},
		{"missing db file", []string{"R(x | y)", "/nonexistent/path"}, "", 3},
		{"bad db contents", []string{"R(x | y)", "-"}, "not a fact", 3},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		got := evalExitCode(evalCmd(tc.args, strings.NewReader(tc.stdin), &out))
		if got != tc.want {
			t.Errorf("%s: exit code = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestEvalEngineFlags(t *testing.T) {
	path := writeDB(t, "R(a | 1)\nR(a | 2)\n")
	for _, flags := range [][]string{{"-stats"}, {"-engine", "auto", "-stats"}} {
		var out bytes.Buffer
		args := append(append([]string{}, flags...), "R(x | y)", path)
		certain, err := evalCmd(args, strings.NewReader(""), &out)
		if err != nil {
			t.Fatalf("%v: %v", flags, err)
		}
		if !certain || strings.TrimSpace(out.String()) != "true" {
			t.Errorf("%v: output %q, want true", flags, out.String())
		}
	}
	// Multiple database files are answered by one engine, one line each.
	path2 := writeDB(t, "R(b | 1)\n")
	var out bytes.Buffer
	certain, err := evalCmd([]string{"R(x | y)", path, path2}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if !certain || len(lines) != 2 || !strings.HasSuffix(lines[0], "true") || !strings.HasSuffix(lines[1], "true") {
		t.Errorf("batch output wrong: %q", out.String())
	}
	// Engine flags are incompatible with explicit non-auto engines.
	if _, err := evalCmd([]string{"-engine", "naive", "-stats", "R(x | y)", path}, strings.NewReader(""), &out); err == nil {
		t.Error("-stats with -engine naive should fail")
	}
}

func TestEvalErrors(t *testing.T) {
	var out bytes.Buffer
	if _, err := evalCmd([]string{"R(x | y)"}, strings.NewReader(""), &out); err == nil {
		t.Error("missing db argument should fail")
	}
	if _, err := evalCmd([]string{"-engine", "bogus", "R(x | y)", "-"}, strings.NewReader(""), &out); err == nil {
		t.Error("unknown engine should fail")
	}
	if _, err := evalCmd([]string{"R(x | y)", "/nonexistent/path"}, strings.NewReader(""), &out); err == nil {
		t.Error("missing file should fail")
	}
}

func TestAnswersCommand(t *testing.T) {
	db := "R(Alice | Bob)\nR(Maria | John)\nS(Bob | Alice)\n"
	var out, errw bytes.Buffer
	err := answersCmd([]string{"-free", "x", "R(x | y), !S(y | x)", "-"},
		strings.NewReader(db), &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "Maria" {
		t.Errorf("answers = %q, want Maria", out.String())
	}
	if !strings.Contains(errw.String(), "1 certain answer") {
		t.Errorf("stderr = %q", errw.String())
	}
}

func TestAnswersErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if err := answersCmd([]string{"R(x | y)", "-"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Error("missing -free should fail")
	}
}

func TestEngineByName(t *testing.T) {
	if _, err := engineByName("bogus"); err == nil {
		t.Error("bogus engine should fail")
	}
	for _, n := range []string{"auto", "rewriting", "direct", "naive"} {
		if _, err := engineByName(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
}

func TestExplainCommand(t *testing.T) {
	var out bytes.Buffer
	dbText := "P(p1 | v1)\nP(p2 | v2)\nN(c | v1)\n"
	err := explainCmd([]string{"P(x | y), !N('c' | y)", "-"}, strings.NewReader(dbText), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"Lemma 6.5", "certain: true"} {
		if !strings.Contains(s, frag) {
			t.Errorf("explain output lacks %q:\n%s", frag, s)
		}
	}
	if err := explainCmd([]string{"R(x | y), !S(y | x)", "-"}, strings.NewReader(""), &out); err == nil {
		t.Error("cyclic query should fail to explain")
	}
}

func TestClassifyJSON(t *testing.T) {
	var out bytes.Buffer
	if err := classify([]string{"-json", "R(x | y), !S(y | x)"}, &out); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(out.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if parsed["verdict"] != "not-FO" || parsed["hardness"] != "NL-hard" {
		t.Errorf("JSON = %v", parsed)
	}
	out.Reset()
	if err := classify([]string{"-json", "P(x | y), !N('c' | y)"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed["verdict"] != "FO" || parsed["rewriting"] == "" {
		t.Errorf("JSON = %v", parsed)
	}
}

func TestRewriteFlagVariants(t *testing.T) {
	var out bytes.Buffer
	if err := rewriteCmd([]string{"-latex", "P(x | y), !N('c' | y)"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\\forall") {
		t.Errorf("latex output lacks \\forall: %s", out.String())
	}
	out.Reset()
	if err := rewriteCmd([]string{"-prenex", "P(x | y), !N('c' | y)"}, &out); err != nil {
		t.Fatal(err)
	}
	s := strings.TrimSpace(out.String())
	if !strings.HasPrefix(s, "∃") && !strings.HasPrefix(s, "∀") {
		t.Errorf("prenex output should start with a quantifier: %s", s)
	}
}

func TestAttackDOTFlag(t *testing.T) {
	var out bytes.Buffer
	if err := attackCmd([]string{"-dot", "R(x | y), !S(y | x)"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "digraph attack") {
		t.Errorf("DOT output wrong: %s", out.String())
	}
}
