package store

import (
	"context"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"

	"cqa/internal/db"
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
	// creating holds the names whose Create is loading outside mu: taken,
	// but not yet found by Get.
	creating map[string]bool
}

// OpenSet opens every database found in opt.Dir: each "<name>.wal" or
// "<name>.snap" file is one store. With opt.Dir == "" the set starts
// empty and Create makes memory-only members.
func OpenSet(opt Options) (*Set, error) {
	set := &Set{opt: opt, m: make(map[string]*Store), creating: make(map[string]bool)}
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

// Create adds the database name, born holding seed (see the package's
// create): seed is its first snapshot, at version 1 when it declares a
// relation and 0 when it is empty, and a durable member writes it as its
// first checkpoint. The store adopts seed; the caller must not mutate it
// afterwards. ready, when non-nil, runs on the new store before Get can
// find it, so a hook it installs sees every write. The name is reserved
// under the lock and the store is built outside it, so no reader waits
// on the checkpoint's I/O. Create fails with ErrExists for a taken name,
// including one whose create is still in flight.
func (s *Set) Create(ctx context.Context, name string, seed *db.Database, ready func(*Store)) (*Store, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	if shardSuffix.MatchString(name) {
		return nil, fmt.Errorf("%w: %q ends in the reserved .s<i> suffix", ErrBadName, name)
	}
	s.mu.Lock()
	if _, ok := s.m[name]; ok || s.creating[name] {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	s.creating[name] = true
	s.mu.Unlock()

	st, err := create(ctx, name, s.opt, seed)
	if err == nil && ready != nil {
		ready(st)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.creating, name)
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
	if _, ok := s.m[st.Name()]; ok || s.creating[st.Name()] {
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
