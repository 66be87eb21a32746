package fo

// MustCompile is Compile for known-good sentences (e.g. rewritings).
func MustCompile(f Formula) *Program {
	p, err := Compile(f, nil)
	if err != nil {
		panic(err)
	}
	return p
}
