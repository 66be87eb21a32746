package schema

import (
	"slices"
	"strconv"
	"strings"
)

// Shape returns q's shape key and its parameter values. The shape is q
// with every constant lifted to a parameter slot, one slot per distinct
// constant, numbered by first occurrence; the values are those constants
// in slot order. Two queries have equal shape keys iff they are
// identical up to literal order, a consistent renaming of variables and
// an injective renaming of constants: relation names, signatures [n, k],
// polarity, the variable pattern and the equality pattern of the
// constants are kept. Self-join-freeness makes sorting literals by
// relation name a total order, after which variables and constants are
// numbered by first occurrence; the encoding is unambiguous (fields are
// separated by control characters that cannot occur in parsed input).
//
// Nothing in the paper's classification or in Algorithm 1's rewriting
// looks at what a constant is — only at which positions hold constants
// and which of them are equal — so one prepared plan serves every query
// of a shape, each request binding its own values (core.Shape).
func (q Query) Shape() (key string, vals []string) {
	key, _, vals = q.Canonical()
	return key, vals
}

// Signature returns a canonical key for q: two queries have equal
// signatures iff they are identical up to literal order and a consistent
// renaming of variables. Constants, relation names, signatures [n, k],
// and polarity are preserved verbatim: the signature is the shape key
// followed by the parameter values.
//
// Because CERTAINTY(q) is a Boolean problem, its answer is invariant
// under variable renaming, which is what makes Signature a sound key
// for maintained verdicts.
func (q Query) Signature() string {
	_, sig, _ := q.Canonical()
	return sig
}

// Canonical returns q's shape key, its signature and its parameter
// values from one walk; the shape key is a prefix of the signature.
func (q Query) Canonical() (shape, sig string, vals []string) {
	shape, sig, vals, _, _ = q.canon(false)
	return shape, sig, vals
}

// Lift returns q's shape as a query, its parameter names and the
// variable renaming: the literals in canonical order, variable i renamed
// ShapeVar(i) and the constants of parameter slot i replaced by the
// variable Param(i). vars[i] is q's name for ShapeVar(i) and vals[i] the
// value of slot i, as Shape returns them.
func (q Query) Lift() (shape Query, params, vars, vals []string) {
	_, _, vals, shape, vars = q.canon(true)
	params = make([]string, len(vals))
	for i := range params {
		params[i] = Param(i)
	}
	return shape, params, vars, vals
}

// Param is the name of parameter slot i in a lifted shape. It cannot
// occur in parsed input.
func Param(i int) string { return "$" + strconv.Itoa(i) }

// ShapeVar is the name of variable i in a lifted shape.
func ShapeVar(i int) string { return "v" + strconv.Itoa(i) }

// canon is the one canonicalising walk behind Shape, Signature,
// Canonical and Lift: literals in relation-name order, variables and
// distinct constants numbered by first occurrence, then the constants
// themselves. With lift it also builds the shape query and the variable
// names in numbering order.
func (q Query) canon(lift bool) (key, sig string, vals []string, shape Query, vars []string) {
	byRel := func(x, y Literal) int { return strings.Compare(x.Atom.Rel, y.Atom.Rel) }
	lits := q.Lits
	if !slices.IsSortedFunc(lits, byRel) {
		lits = slices.Clone(lits)
		slices.SortStableFunc(lits, byRel)
	}
	var varNo, constNo numbering
	var b strings.Builder
	b.Grow(16 * len(lits))
	if lift {
		shape.Lits = make([]Literal, len(lits))
	}
	for li, l := range lits {
		if l.Neg {
			b.WriteByte('!')
		}
		// Length-prefixed so relation names containing control
		// characters cannot forge encoding structure.
		b.WriteString(strconv.Itoa(len(l.Atom.Rel)))
		b.WriteByte(':')
		b.WriteString(l.Atom.Rel)
		b.WriteByte('\x01')
		b.WriteString(strconv.Itoa(len(l.Atom.Terms)))
		b.WriteByte('.')
		b.WriteString(strconv.Itoa(l.Atom.Key))
		var terms []Term
		if lift {
			terms = make([]Term, len(l.Atom.Terms))
		}
		for ti, t := range l.Atom.Terms {
			if t.IsVar {
				n := varNo.of(t.Name)
				b.WriteString("\x02v")
				b.WriteString(strconv.Itoa(n))
				if lift {
					terms[ti] = Var(ShapeVar(n))
				}
				continue
			}
			n := constNo.of(t.Name)
			b.WriteByte('\x03')
			b.WriteString(strconv.Itoa(n))
			if lift {
				terms[ti] = Var(Param(n))
			}
		}
		b.WriteByte('\x04')
		if lift {
			shape.Lits[li] = Literal{Neg: l.Neg, Atom: Atom{Rel: l.Atom.Rel, Key: l.Atom.Key, Terms: terms}}
		}
	}
	n := b.Len()
	for _, v := range constNo.list {
		// Length-prefixed so constants containing control characters
		// cannot forge encoding structure.
		b.WriteByte('\x05')
		b.WriteString(strconv.Itoa(len(v)))
		b.WriteByte(':')
		b.WriteString(v)
	}
	sig = b.String()
	return sig[:n], sig, constNo.list, shape, varNo.list
}

// numbering numbers distinct strings by first occurrence: a list,
// indexed by a map once it outgrows a linear scan, so a query of many
// variables or constants is not quadratic to canonicalise.
type numbering struct {
	list []string
	idx  map[string]int
}

func (n *numbering) of(v string) int {
	if n.idx != nil {
		if i, ok := n.idx[v]; ok {
			return i
		}
	} else {
		for i, w := range n.list {
			if w == v {
				return i
			}
		}
	}
	i := len(n.list)
	n.list = append(n.list, v)
	if n.idx != nil {
		n.idx[v] = i
	} else if len(n.list) > 8 {
		n.idx = make(map[string]int, 2*len(n.list))
		for j, w := range n.list {
			n.idx[w] = j
		}
	}
	return i
}
