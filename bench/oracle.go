package main

import (
	"strings"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/parse"
	"cqa/internal/schema"
)

// The oracle is repair enumeration (core.EngineNaive), which is
// exponential in the number of non-singleton blocks and so cannot be run
// on the 30 000-fact store database as a whole. Every store query the
// benchmark sends has all its atoms keyed by one term — the constant 'k'
// of the point query, the variable x of the pool shapes — so a
// satisfying valuation lives inside the blocks of one key, and blocks
// are repaired independently. Such a query is therefore certain on the
// database iff it is certain on the sub-database of some single key
// (if no key is, the local falsifying repairs combine into a global
// one). oracle_test.go checks this against enumeration on whole
// databases small enough to enumerate.

func mustQuery(src string) schema.Query {
	q, err := parse.Query(src)
	if err != nil {
		panic("bench: generated query does not parse: " + err.Error())
	}
	return q
}

// localCertain decides q on the sub-database holding only the blocks of
// key, which is stored under the name as.
func localCertain(q schema.Query, s shadow, key, as string) bool {
	d := db.New()
	for _, rel := range []string{"R", "S", "T"} {
		d.MustDeclare(rel, 2, 1)
		for _, v := range s.block(rel, key) {
			d.MustInsert(db.F(rel, as, v))
		}
	}
	ok, err := core.Certain(q, d, core.EngineNaive)
	if err != nil {
		panic("bench: oracle failed on " + q.String() + ": " + err.Error())
	}
	return ok
}

// pointTruth is the verdict of pointQuery(key) on s.
func pointTruth(s shadow, key string) bool {
	return localCertain(mustQuery(pointQuery(key)), s, key, key)
}

// profile names what a key's blocks hold, independent of the key, so
// that keys with equal blocks share one oracle call per query.
func profile(s shadow, key string) string {
	return strings.Join(s.block("R", key), ",") + "|" +
		strings.Join(s.block("S", key), ",") + "|" +
		strings.Join(s.block("T", key), ",")
}

// scanOracle maintains, for a list of x-keyed queries, how many keys
// make each certain on their own; a query is certain iff that count is
// positive. update is called after every write with the touched key.
type scanOracle struct {
	s       shadow
	queries []schema.Query
	memo    []map[string]bool // per query: profile → local verdict
	prof    map[string]string // key → profile when last counted
	count   []int
}

func newScanOracle(s shadow, queries []string) *scanOracle {
	o := &scanOracle{s: s, prof: map[string]string{}, count: make([]int, len(queries))}
	for _, src := range queries {
		o.queries = append(o.queries, mustQuery(src))
		o.memo = append(o.memo, map[string]bool{})
	}
	for key := range s["R"] {
		o.update(key)
	}
	for _, rel := range []string{"S", "T"} {
		for key := range s[rel] {
			if _, seen := o.prof[key]; !seen {
				o.update(key)
			}
		}
	}
	return o
}

func (o *scanOracle) local(i int, key, prof string) bool {
	v, ok := o.memo[i][prof]
	if !ok {
		v = localCertain(o.queries[i], o.s, key, "k")
		o.memo[i][prof] = v
	}
	return v
}

// update recounts key after its blocks changed in the shadow.
func (o *scanOracle) update(key string) {
	old, had := o.prof[key]
	now := profile(o.s, key)
	for i := range o.queries {
		if had && o.memo[i][old] { // memoized when key was last counted
			o.count[i]--
		}
		if o.local(i, key, now) {
			o.count[i]++
		}
	}
	o.prof[key] = now
}

// verdicts is the current truth of every query.
func (o *scanOracle) verdicts() []bool {
	out := make([]bool, len(o.count))
	for i, n := range o.count {
		out[i] = n > 0
	}
	return out
}

// inlineTruth decides one inline case by enumeration of all repairs.
func inlineTruth(c inlineCase) (bool, error) {
	q, err := parse.Query(c.Query)
	if err != nil {
		return false, err
	}
	d, err := parse.Database(c.Facts)
	if err != nil {
		return false, err
	}
	if err := parse.DeclareQueryRelations(d, q); err != nil {
		return false, err
	}
	return core.Certain(q, d, core.EngineNaive)
}
