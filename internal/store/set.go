package store

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// shardSuffix matches the "<name>.s<i>" store names an earlier layout
// gave the shards of one database. No store of this package takes such
// a name: a data directory holding one is refused at open, not read as
// several unrelated databases.
var shardSuffix = regexp.MustCompile(`\.s\d+$`)

// Set is a server's named databases: one store each, sharing one data
// directory and one Options. Safe for concurrent use.
type Set struct {
	opt Options

	mu sync.Mutex
	m  map[string]*Store
}

// OpenSet opens every database found in opt.Dir: each "<name>.wal" or
// "<name>.snap" file is one store. With opt.Dir == "" the set starts
// empty and Create makes memory-only members.
func OpenSet(opt Options) (*Set, error) {
	set := &Set{opt: opt, m: make(map[string]*Store)}
	if opt.Dir == "" {
		return set, nil
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(opt.Dir)
	if err != nil {
		return nil, err
	}
	names := make(map[string]bool)
	for _, e := range entries {
		base, ok := strings.CutSuffix(e.Name(), ".wal")
		if !ok {
			base, ok = strings.CutSuffix(e.Name(), ".snap")
		}
		if e.IsDir() || !ok {
			continue
		}
		if shardSuffix.MatchString(base) {
			return nil, fmt.Errorf("store: %s holds one shard of a partitioned database; this server keeps one store per database",
				e.Name())
		}
		names[base] = true
	}
	for name := range names {
		st, err := Open(name, opt)
		if err != nil {
			set.CloseAll()
			return nil, fmt.Errorf("store: opening %s: %w", name, err)
		}
		set.m[name] = st
	}
	return set, nil
}

// Get returns the named database, or nil.
func (s *Set) Get(name string) *Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[name]
}

// Names returns the member names, sorted.
func (s *Set) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.m))
	for n := range s.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Create opens a fresh database (durable when the set has a data
// directory). It fails with ErrExists for a taken name.
func (s *Set) Create(name string) (*Store, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	if shardSuffix.MatchString(name) {
		return nil, fmt.Errorf("store: name %q ends in the reserved .s<i> suffix", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	st, err := Open(name, s.opt)
	if err != nil {
		return nil, err
	}
	s.m[name] = st
	return st, nil
}

// Adopt adds an existing store (a preloaded database) under its own
// name.
func (s *Set) Adopt(st *Store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[st.Name()]; ok {
		return fmt.Errorf("%w: %s", ErrExists, st.Name())
	}
	s.m[st.Name()] = st
	return nil
}

// CloseAll closes every member, returning the first error.
func (s *Set) CloseAll() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, st := range s.m {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
