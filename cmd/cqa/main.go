// Command cqa is the command-line front end of the library.
//
// Usage:
//
//	cqa classify '<query>'            classification under Theorem 4.3
//	cqa attack   '<query>'            attack-graph details (F⊕, edges, witnesses)
//	cqa rewrite  '<query>'            consistent first-order rewriting
//	cqa sql      '<query>'            the rewriting as a single SQL query
//	cqa eval     '<query>' <db-file>... answer CERTAINTY(q) on databases
//	    -engine auto|rewriting|direct|naive   (default auto)
//	    -stats       print engine stats to stderr (engine auto only)
//	With -engine auto one plan-cached engine answers every database;
//	several database files (auto only) print one "file: answer" line each.
//	Exit status: 0 when the query is certain on every database, 1 when
//	it is not certain on some database, 2 on usage errors, and 3 on
//	parse/classify/database errors — scripts can branch on certainty
//	without parsing the output.
//
// Query syntax: R(x | y), !S(y | x) — key positions before '|', '!' for
// negation, 'quoted' constants. Database files hold one fact per line:
// R(a | b), with '#' comments.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/engine"
	"cqa/internal/fo"
	"cqa/internal/parse"
	"cqa/internal/schema"
	"cqa/internal/sqlgen"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "classify":
		err = classify(args, os.Stdout)
	case "attack":
		err = attackCmd(args, os.Stdout)
	case "rewrite":
		err = rewriteCmd(args, os.Stdout)
	case "sql":
		err = sqlCmd(args, os.Stdout)
	case "eval":
		// eval has its own exit-code contract (see usage): scripts branch
		// on certainty without parsing output, and distinguish "the query
		// is not certain" from "the invocation was broken".
		os.Exit(evalExitCode(evalCmd(args, os.Stdin, os.Stdout)))
	case "answers":
		err = answersCmd(args, os.Stdin, os.Stdout, os.Stderr)
	case "explain":
		err = explainCmd(args, os.Stdin, os.Stdout)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "cqa: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqa:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  cqa classify '<query>'
  cqa attack   '<query>'
  cqa rewrite  '<query>'
  cqa sql      '<query>'
  cqa eval     [-engine auto|rewriting|direct|naive] [-stats] '<query>' <db-file|-> [db-file...]
               exit status: 0 certain on every database, 1 not certain on
               some database, 2 usage error, 3 parse/classify/database error
  cqa answers  -free x,y '<query>' <db-file|->
  cqa explain  '<query>' <db-file|->       trace Algorithm 1`)
}

func parseQueryArg(args []string) (schema.Query, error) {
	if len(args) != 1 {
		return schema.Query{}, fmt.Errorf("expected exactly one query argument")
	}
	return parse.Query(args[0])
}

func classify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("classify", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	q, err := parseQueryArg(fs.Args())
	if err != nil {
		return err
	}
	cls, err := core.Classify(q)
	if err != nil {
		return err
	}
	if *asJSON {
		return writeClassificationJSON(out, cls)
	}
	fmt.Fprintln(out, "query:          ", q)
	fmt.Fprintln(out, "guarded:        ", cls.Guarded)
	fmt.Fprintln(out, "weakly-guarded: ", cls.WeaklyGuarded)
	fmt.Fprintln(out, "attack edges:")
	for _, e := range cls.Graph.Edges() {
		fmt.Fprintf(out, "  %s -> %s\n", e[0], e[1])
	}
	fmt.Fprintln(out, "acyclic:        ", cls.Acyclic)
	fmt.Fprintln(out, "verdict:        ", cls.Verdict)
	switch cls.Verdict {
	case core.VerdictFO:
		fmt.Fprintln(out, "rewriting:      ", cls.Rewriting)
	case core.VerdictNotFO:
		fmt.Fprintf(out, "hardness:        %s (2-cycle %s ⇄ %s, %d negated)\n",
			cls.Hardness, cls.CycleF, cls.CycleG, cls.CycleNegated)
	case core.VerdictOutOfScope:
		fmt.Fprintln(out, "note: negation is not weakly-guarded and no unconditional")
		fmt.Fprintln(out, "hardness lemma applies; Theorem 4.3 does not decide this query.")
	}
	return nil
}

func attackCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("attack", flag.ContinueOnError)
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	q, err := parseQueryArg(fs.Args())
	if err != nil {
		return err
	}
	cls, err := core.Classify(q)
	if err != nil {
		return err
	}
	g := cls.Graph
	if *dot {
		fmt.Fprint(out, g.DOT())
		return nil
	}
	for _, rel := range g.Atoms() {
		fmt.Fprintf(out, "%s:\n", rel)
		fmt.Fprintf(out, "  F⊕            = %s\n", g.Oplus(rel))
		fmt.Fprintf(out, "  attacked vars = %s\n", g.AttackedVars(rel))
		for _, to := range g.Atoms() {
			if !g.Attacks(rel, to) {
				continue
			}
			toAtom, _ := q.AtomByRel(to)
			for _, kv := range toAtom.KeyVars().Sorted() {
				if u, wit, ok := g.AttackVarWitness(rel, kv); ok {
					fmt.Fprintf(out, "  %s -> %s via %s|%s ⇝ %s, witness %v\n", rel, to, rel, u, kv, wit)
					break
				}
			}
		}
	}
	return nil
}

func rewriteCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rewrite", flag.ContinueOnError)
	latex := fs.Bool("latex", false, "emit LaTeX math source")
	prenex := fs.Bool("prenex", false, "emit the prenex normal form")
	if err := fs.Parse(args); err != nil {
		return err
	}
	q, err := parseQueryArg(fs.Args())
	if err != nil {
		return err
	}
	cls, err := core.Classify(q)
	if err != nil {
		return err
	}
	if cls.Verdict != core.VerdictFO {
		return fmt.Errorf("no consistent first-order rewriting: verdict is %s", cls.Verdict)
	}
	f := cls.Rewriting
	if *prenex {
		f = fo.Prenex(f)
	}
	if *latex {
		fmt.Fprintln(out, fo.LaTeX(f))
		return nil
	}
	fmt.Fprintln(out, f)
	return nil
}

func sqlCmd(args []string, out io.Writer) error {
	q, err := parseQueryArg(args)
	if err != nil {
		return err
	}
	cls, err := core.Classify(q)
	if err != nil {
		return err
	}
	if cls.Verdict != core.VerdictFO {
		return fmt.Errorf("no consistent first-order rewriting: verdict is %s", cls.Verdict)
	}
	sql, err := sqlgen.Translate(cls.Rewriting, sqlgen.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, sql)
	return nil
}

// usageError marks an eval failure as the caller's invocation being
// wrong (bad flags, missing arguments), as opposed to bad input data.
type usageError struct{ error }

// evalExitCode maps an evalCmd outcome onto the documented exit-code
// contract: 0 certain everywhere, 1 not certain somewhere, 2 usage
// error, 3 parse/classify/database error.
func evalExitCode(certain bool, err error) int {
	switch {
	case err == nil && certain:
		return 0
	case err == nil:
		return 1
	case errors.Is(err, flag.ErrHelp):
		return 0
	default:
		fmt.Fprintln(os.Stderr, "cqa:", err)
		var ue usageError
		if errors.As(err, &ue) {
			return 2
		}
		return 3
	}
}

func evalCmd(args []string, stdin io.Reader, out io.Writer) (bool, error) {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	engineName := fs.String("engine", "auto", "auto|rewriting|direct|naive")
	stats := fs.Bool("stats", false, "print engine plan and result cache stats to stderr (engine auto only)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return false, err
		}
		return false, usageError{err}
	}
	rest := fs.Args()
	if len(rest) < 2 {
		return false, usageError{fmt.Errorf("eval needs a query and at least one database file (or - for stdin)")}
	}
	q, err := parse.Query(rest[0])
	if err != nil {
		return false, err
	}
	dbs := make([]*db.Database, 0, len(rest)-1)
	for _, name := range rest[1:] {
		var src []byte
		if name == "-" {
			src, err = io.ReadAll(stdin)
		} else {
			src, err = os.ReadFile(name)
		}
		if err != nil {
			return false, err
		}
		d, err := parse.Database(string(src))
		if err != nil {
			return false, err
		}
		if err := parse.DeclareQueryRelations(d, q); err != nil {
			return false, err
		}
		dbs = append(dbs, d)
	}
	if *engineName != "auto" {
		if *stats || len(dbs) > 1 {
			return false, usageError{fmt.Errorf("-stats and multiple databases require -engine auto")}
		}
		eng, err := engineByName(*engineName)
		if err != nil {
			return false, usageError{err}
		}
		ans, err := core.Certain(q, dbs[0], eng)
		if err != nil {
			return false, err
		}
		fmt.Fprintln(out, ans)
		return ans, nil
	}
	// One engine answers every database: the query is planned once.
	e := engine.New(engine.Options{})
	defer e.Close()
	all := true
	for i, d := range dbs {
		ans, err := e.Certain(q, d)
		if len(dbs) == 1 {
			if err != nil {
				return false, err
			}
			fmt.Fprintln(out, ans)
		} else {
			if err != nil {
				return false, fmt.Errorf("%s: %w", rest[1+i], err)
			}
			fmt.Fprintf(out, "%s: %v\n", rest[1+i], ans)
		}
		all = all && ans
	}
	if *stats {
		fmt.Fprintln(os.Stderr, e.Stats())
	}
	return all, nil
}

func answersCmd(args []string, stdin io.Reader, out, errw io.Writer) error {
	fs := flag.NewFlagSet("answers", flag.ContinueOnError)
	freeList := fs.String("free", "", "comma-separated free variables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) != 2 || *freeList == "" {
		return fmt.Errorf("answers needs -free, a query, and a database file (or - for stdin)")
	}
	free := strings.Split(*freeList, ",")
	for i := range free {
		free[i] = strings.TrimSpace(free[i])
	}
	q, err := parse.Query(rest[0])
	if err != nil {
		return err
	}
	var src []byte
	if rest[1] == "-" {
		src, err = io.ReadAll(stdin)
	} else {
		src, err = os.ReadFile(rest[1])
	}
	if err != nil {
		return err
	}
	d, err := parse.Database(string(src))
	if err != nil {
		return err
	}
	if err := parse.DeclareQueryRelations(d, q); err != nil {
		return err
	}
	answers, err := core.CertainAnswers(q, free, d)
	if err != nil {
		return err
	}
	for _, a := range answers {
		fmt.Fprintln(out, strings.Join(a, ", "))
	}
	fmt.Fprintf(errw, "%d certain answer(s)\n", len(answers))
	return nil
}

func engineByName(name string) (core.Engine, error) {
	switch name {
	case "auto":
		return core.EngineAuto, nil
	case "rewriting":
		return core.EngineRewriting, nil
	case "direct":
		return core.EngineDirect, nil
	case "naive":
		return core.EngineNaive, nil
	default:
		return 0, fmt.Errorf("unknown engine %q", name)
	}
}
