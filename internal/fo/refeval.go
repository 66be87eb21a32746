package fo

import (
	"fmt"

	"cqa/internal/db"
	"cqa/internal/schema"
)

// EvalReference is a deliberately simple active-domain model checker with
// no quantifier-range optimization: every quantifier iterates the whole
// active domain. It exists to cross-validate Eval (whose guard-based
// candidate restriction is the only clever part of the evaluator) and for
// debugging; production code should use Eval.
func EvalReference(d *db.Database, f Formula) bool {
	if free := FreeVars(f); !free.Empty() {
		panic(fmt.Sprintf("fo: EvalReference on non-sentence with free variables %s", free))
	}
	domain := activeDomain(d, f, nil)
	return refEval(d, domain, f, make(map[string]string))
}

func refEval(d *db.Database, domain []string, f Formula, env map[string]string) bool {
	switch g := f.(type) {
	case Truth:
		return bool(g)
	case Atom:
		args := make([]string, len(g.Terms))
		for i, t := range g.Terms {
			args[i] = refGround(t, env)
		}
		return d.Has(db.Fact{Rel: g.Rel, Args: args})
	case Eq:
		return refGround(g.L, env) == refGround(g.R, env)
	case Not:
		return !refEval(d, domain, g.F, env)
	case And:
		for _, sub := range g.Fs {
			if !refEval(d, domain, sub, env) {
				return false
			}
		}
		return true
	case Or:
		for _, sub := range g.Fs {
			if refEval(d, domain, sub, env) {
				return true
			}
		}
		return false
	case Implies:
		return !refEval(d, domain, g.L, env) || refEval(d, domain, g.R, env)
	case Exists:
		return refQuant(d, domain, g.Vars, g.Body, env, false)
	case Forall:
		return refQuant(d, domain, g.Vars, g.Body, env, true)
	default:
		panic(fmt.Sprintf("fo: unknown formula %T", f))
	}
}

// refQuant binds vars over the full domain; universal=true checks all
// bindings, otherwise it searches for one.
func refQuant(d *db.Database, domain []string, vars []string, body Formula, env map[string]string, universal bool) bool {
	if len(vars) == 0 {
		return refEval(d, domain, body, env)
	}
	x, rest := vars[0], vars[1:]
	saved, had := env[x]
	defer func() {
		if had {
			env[x] = saved
		} else {
			delete(env, x)
		}
	}()
	for _, v := range domain {
		env[x] = v
		ok := refQuant(d, domain, rest, body, env, universal)
		if universal && !ok {
			return false
		}
		if !universal && ok {
			return true
		}
	}
	return universal
}

func refGround(t schema.Term, env map[string]string) string {
	if !t.IsVar {
		return t.Name
	}
	v, ok := env[t.Name]
	if !ok {
		panic(fmt.Sprintf("fo: unbound variable %s", t.Name))
	}
	return v
}
