package chaostest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/parse"
	"cqa/internal/server"
	"cqa/internal/shard"
)

// cqadBin is built once for the whole package.
var cqadBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "chaostest-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cqadBin, err = BuildCqad(dir)
	if err != nil {
		os.RemoveAll(dir)
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// chaosRounds reads the round count from CHAOS_ROUNDS; the default
// keeps `go test ./...` fast, the acceptance run uses 20.
func chaosRounds() int {
	if s := os.Getenv("CHAOS_ROUNDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 2
}

const (
	chaosDB     = "chaos"
	chaosKeys   = 32
	chaosValues = 3
)

// harness drives one topology: client-side shadow, key ownership, and
// the query/validation helpers shared by the chaos and smoke tests.
type harness struct {
	t      *testing.T
	tp     *Topology
	client *http.Client
	shadow *db.Database
	rng    *rand.Rand

	truthMu sync.Mutex
	truth   map[string]bool // memoized per (query, shadow generation)
}

func newHarness(t *testing.T, tp *Topology, seed int64) *harness {
	h := &harness{
		t:      t,
		tp:     tp,
		client: &http.Client{Timeout: 30 * time.Second},
		rng:    rand.New(rand.NewSource(seed)),
		truth:  map[string]bool{},
	}
	var seedFacts strings.Builder
	for i := 0; i < chaosKeys; i++ {
		fmt.Fprintf(&seedFacts, "R(k%d | v%d)\n", i, h.rng.Intn(chaosValues))
		if i%2 == 0 {
			fmt.Fprintf(&seedFacts, "S(k%d | v%d)\n", i, h.rng.Intn(chaosValues))
		}
	}
	shadow, err := parse.Database(seedFacts.String())
	if err != nil {
		t.Fatal(err)
	}
	h.shadow = shadow
	var ack server.DBWriteResponse
	if err := h.post(tp.Router.URL+"/v1/db/create",
		server.DBCreateRequest{Name: chaosDB, Facts: seedFacts.String()}, &ack); err != nil {
		t.Fatalf("creating %s: %v", chaosDB, err)
	}
	return h
}

// owner returns the shard owning key k's blocks. The placement hashes
// key values only, so R(k...) and S(k...) co-locate and every query the
// harness issues touches exactly one shard.
func (h *harness) owner(k int) int {
	return shard.Owner("R", []string{fmt.Sprintf("k%d", k)}, len(h.tp.Shards))
}

// keyOwnedBy returns some key owned by s, and one not owned by s.
func (h *harness) keyOwnedBy(s int) (owned, other int) {
	owned, other = -1, -1
	for k := 0; k < chaosKeys; k++ {
		if h.owner(k) == s {
			if owned < 0 {
				owned = k
			}
		} else if other < 0 {
			other = k
		}
	}
	if owned < 0 || other < 0 {
		h.t.Fatalf("key space does not cover shard %d and its complement", s)
	}
	return owned, other
}

// writeBatch issues n random single-fact writes through the router and
// mirrors them into the shadow. Every shard must be alive.
func (h *harness) writeBatch(n int) {
	h.truthMu.Lock()
	h.truth = map[string]bool{}
	h.truthMu.Unlock()
	for i := 0; i < n; i++ {
		rel := "R"
		if h.rng.Intn(3) == 0 {
			rel = "S"
		}
		fact := db.F(rel, fmt.Sprintf("k%d", h.rng.Intn(chaosKeys)), fmt.Sprintf("v%d", h.rng.Intn(chaosValues)))
		del := h.rng.Intn(3) == 0
		path := "/v1/db/insert"
		if del {
			path = "/v1/db/delete"
		}
		var ack server.DBWriteResponse
		err := h.post(h.tp.Router.URL+path, server.DBWriteRequest{
			Database: chaosDB,
			Facts:    fmt.Sprintf("%s(%s | %s)\n", fact.Rel, fact.Args[0], fact.Args[1]),
		}, &ack)
		if err != nil {
			h.t.Fatalf("write %d: %v", i, err)
		}
		switch {
		case del && h.shadow.Has(fact):
			h.shadow.Remove(fact)
		case !del && !h.shadow.Has(fact):
			h.shadow.MustInsert(fact)
		}
	}
}

// query picks a ground-key query shape for key k.
func (h *harness) query(k int) string {
	switch h.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("R('k%d' | y)", k)
	case 1:
		return fmt.Sprintf("R('k%d' | 'v%d')", k, h.rng.Intn(chaosValues))
	default:
		return fmt.Sprintf("R('k%d' | x), !S('k%d' | x)", k, k)
	}
}

// want computes ground truth for a query on the current shadow by the
// tree walk over the rewriting, independent of the compiled program the
// servers run (every chaos query is a ground-key FO query). Safe for
// concurrent use (the background readers share the memo).
func (h *harness) want(query string) bool {
	h.truthMu.Lock()
	v, ok := h.truth[query]
	h.truthMu.Unlock()
	if ok {
		return v
	}
	q, err := parse.Query(query)
	if err != nil {
		h.t.Fatalf("bad query %q: %v", query, err)
	}
	v, err = core.Certain(q, h.shadow, core.EngineRewriting)
	if err != nil {
		h.t.Fatalf("ground truth for %q: %v", query, err)
	}
	h.truthMu.Lock()
	h.truth[query] = v
	h.truthMu.Unlock()
	return v
}

// ask issues a read through the router. It returns (answer, errCode):
// errCode "" on 200, the structured error code otherwise.
func (h *harness) ask(query string) (bool, string) {
	var out server.CertainResponse
	err := h.post(h.tp.Router.URL+"/v1/certain",
		server.CertainRequest{Query: query, Database: chaosDB}, &out)
	if err == nil {
		return out.Certain, ""
	}
	if se, ok := err.(*statusError); ok && se.code != "" {
		return false, se.code
	}
	return false, "unreachable: " + err.Error()
}

// mustAnswer asserts a query answers 200 with the shadow's answer.
func (h *harness) mustAnswer(query string) {
	h.t.Helper()
	got, code := h.ask(query)
	if code != "" {
		h.t.Fatalf("%q: unexpected error %q", query, code)
	}
	if want := h.want(query); got != want {
		h.t.Fatalf("WRONG ANSWER: %q served %v, shadow says %v", query, got, want)
	}
}

// version reads a server's served version of the chaos database.
func (h *harness) version(base string) (uint64, error) {
	resp, err := h.client.Get(base + "/v1/db/info")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var info server.DBInfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return 0, err
	}
	for _, d := range info.Databases {
		if d.Name == chaosDB {
			return d.Version, nil
		}
	}
	return 0, fmt.Errorf("%s does not serve %s", base, chaosDB)
}

// statusError carries a structured error body from a non-200 response.
type statusError struct {
	status int
	code   string
	msg    string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("status %d: %s: %s", e.status, e.code, e.msg)
}

func (h *harness) post(url string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := h.client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var eb server.ErrorBody
		if json.Unmarshal(raw, &eb) == nil && eb.Error.Code != "" {
			return &statusError{resp.StatusCode, eb.Error.Code, eb.Error.Message}
		}
		return &statusError{resp.StatusCode, "", string(bytes.TrimSpace(raw))}
	}
	return json.Unmarshal(raw, out)
}

// TestChaosKillRecover is the fault-injection acceptance test: rounds
// of write → quiesce → SIGKILL a random process → assert degraded
// serving is explicit and every served answer is correct → restart →
// assert full recovery. CHAOS_ROUNDS=20 is the acceptance setting.
func TestChaosKillRecover(t *testing.T) {
	dir := t.TempDir()
	tp, err := Boot(BootOptions{Bin: cqadBin, Dir: dir, Shards: 4, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	h := newHarness(t, tp, 42)
	rounds := chaosRounds()

	for round := 0; round < rounds; round++ {
		h.writeBatch(8)

		// Background readers hammer across the kill window: every 200
		// must match the shadow; errors must be explicit, never wrong.
		stopBg := make(chan struct{})
		var bgWrong []string
		var bgMu sync.Mutex
		var bgWg sync.WaitGroup
		for c := 0; c < 4; c++ {
			bgWg.Add(1)
			go func(c int) {
				defer bgWg.Done()
				rng := rand.New(rand.NewSource(int64(round*100 + c)))
				for {
					select {
					case <-stopBg:
						return
					default:
					}
					k := rng.Intn(chaosKeys)
					query := fmt.Sprintf("R('k%d' | 'v%d')", k, rng.Intn(chaosValues))
					got, code := h.ask(query)
					if code == "" && got != h.want(query) {
						bgMu.Lock()
						bgWrong = append(bgWrong, fmt.Sprintf("%q served %v", query, got))
						bgMu.Unlock()
					}
				}
			}(c)
		}

		victimShard := h.rng.Intn(len(tp.Shards))
		victim := tp.Shards[victimShard]
		t.Logf("round %d: SIGKILL %s", round, victim.Name)
		if err := victim.Kill(); err != nil {
			t.Fatal(err)
		}
		owned, other := h.keyOwnedBy(victimShard)
		// Keys on live shards keep answering exactly; reads touching the
		// dead shard degrade to the explicit partial-result error.
		h.mustAnswer(h.query(other))
		if _, code := h.ask(h.query(owned)); code != "partial_result" {
			t.Fatalf("round %d: read touching dead %s: got %q, want partial_result", round, victim.Name, code)
		}
		// Writes fan out to every shard (schema broadcast), so any dead
		// shard makes writes fail explicitly — partial, named.
		err := h.post(tp.Router.URL+"/v1/db/insert", server.DBWriteRequest{
			Database: chaosDB, Facts: fmt.Sprintf("R(k%d | vX)\n", owned),
		}, &server.DBWriteResponse{})
		if se, ok := err.(*statusError); !ok || se.code != "partial_write" {
			t.Fatalf("round %d: write with dead shard: %v, want partial_write", round, err)
		}
		// Restart: the shard recovers from its own WAL and rejoins (the
		// router holds no state — pure hashing).
		if err := victim.Start(); err != nil {
			t.Fatal(err)
		}
		if err := victim.WaitHealthy(10 * time.Second); err != nil {
			t.Fatal(err)
		}

		close(stopBg)
		bgWg.Wait()
		if len(bgWrong) > 0 {
			t.Fatalf("round %d: %d wrong background answer(s): %s", round, len(bgWrong), bgWrong[0])
		}

		// Full recovery: every key answers exactly through the router.
		for k := 0; k < chaosKeys; k++ {
			h.mustAnswer(h.query(k))
		}
	}
}

// TestShardSmoke is the thin `make shard-smoke` cycle: boot a 4-shard
// topology, serve, SIGKILL one shard, verify explicit degradation,
// restart it, verify recovered serving.
func TestShardSmoke(t *testing.T) {
	dir := t.TempDir()
	tp, err := Boot(BootOptions{Bin: cqadBin, Dir: dir, Shards: 4, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	h := newHarness(t, tp, 7)
	h.writeBatch(6)
	for k := 0; k < chaosKeys; k += 5 {
		h.mustAnswer(h.query(k))
	}

	victim := 1
	owned, other := h.keyOwnedBy(victim)
	if err := tp.Shards[victim].Kill(); err != nil {
		t.Fatal(err)
	}
	h.mustAnswer(h.query(other))
	if _, code := h.ask(h.query(owned)); code != "partial_result" {
		t.Fatalf("read touching dead shard: got %q, want partial_result", code)
	}
	if err := tp.Shards[victim].Start(); err != nil {
		t.Fatal(err)
	}
	if err := tp.Shards[victim].WaitHealthy(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	h.mustAnswer(h.query(owned))
	h.writeBatch(4)
	for k := 0; k < chaosKeys; k++ {
		h.mustAnswer(h.query(k))
	}
}
