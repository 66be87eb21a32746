package shard

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cqa/internal/store"
)

// shardSuffix matches the reserved "<name>.s<i>" shard store naming.
// Plain basenames are pre-sharding single-shard databases.
var shardSuffix = regexp.MustCompile(`^(.+)\.s(\d+)$`)

// Set is a named collection of sharded stores sharing one data
// directory, one Options, and one default shard count. Discovery groups
// "<name>.s<i>" files into one n-shard member and adopts plain "<name>"
// files as single-shard members, so pre-sharding data directories keep
// working. Safe for concurrent use.
type Set struct {
	opt    store.Options
	shards int

	mu sync.Mutex
	m  map[string]*Sharded
}

// OpenSet opens every database found in opt.Dir. shards is the shard
// count for databases created later; existing databases keep the count
// their files imply. With opt.Dir == "" the set starts empty and Create
// makes memory-only members.
func OpenSet(opt store.Options, shards int) (*Set, error) {
	if shards <= 0 {
		shards = 1
	}
	set := &Set{opt: opt, shards: shards, m: make(map[string]*Sharded)}
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
	counts := make(map[string]int) // logical name → shard count
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		base := e.Name()
		switch {
		case strings.HasSuffix(base, ".wal"):
			base = strings.TrimSuffix(base, ".wal")
		case strings.HasSuffix(base, ".snap"):
			base = strings.TrimSuffix(base, ".snap")
		default:
			continue
		}
		if m := shardSuffix.FindStringSubmatch(base); m != nil {
			i, err := strconv.Atoi(m[2])
			if err == nil && i >= 0 {
				if i+1 > counts[m[1]] {
					counts[m[1]] = i + 1
				}
				continue
			}
		}
		if counts[base] < 1 {
			counts[base] = 1
		}
	}
	for name, n := range counts {
		sh, err := NewSharded(name, n, opt)
		if err != nil {
			set.CloseAll()
			return nil, fmt.Errorf("shard: opening %s: %w", name, err)
		}
		set.m[name] = sh
	}
	return set, nil
}

// ShardCount returns the shard count used for new databases.
func (s *Set) ShardCount() int { return s.shards }

// Get returns the named database, or nil.
func (s *Set) Get(name string) *Sharded {
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

// Create opens a fresh database with the set's shard count (durable
// when the set has a data directory). It fails with store.ErrExists for
// a taken name.
func (s *Set) Create(name string) (*Sharded, error) {
	if err := store.ValidName(name); err != nil {
		return nil, err
	}
	if shardSuffix.MatchString(name) {
		return nil, fmt.Errorf("shard: name %q uses the reserved .s<i> shard suffix", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[name]; ok {
		return nil, fmt.Errorf("%w: %s", store.ErrExists, name)
	}
	sh, err := NewSharded(name, s.shards, s.opt)
	if err != nil {
		return nil, err
	}
	s.m[name] = sh
	return sh, nil
}

// Adopt adds an existing sharded database (typically wrapping preloaded
// or replica stores) under its own name.
func (s *Set) Adopt(sh *Sharded) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[sh.Name()]; ok {
		return fmt.Errorf("%w: %s", store.ErrExists, sh.Name())
	}
	s.m[sh.Name()] = sh
	return nil
}

// CloseAll closes every member, returning the first error.
func (s *Set) CloseAll() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, sh := range s.m {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
