package coststore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"adapipe/internal/recompute"
)

func testKey(i int) Key {
	var k Key
	k[0] = byte(i)
	k[1] = byte(i >> 8)
	k[31] = 0xAB
	return k
}

func testEntry(i int) Entry {
	return Entry{
		Fwd:  float64(i) * 1.5,
		Bwd:  float64(i) * 3.25,
		Sol:  recompute.Solution{Feasible: true, SavedTime: float64(i), SavedBytes: int64(i), Saved: []int32{int32(i)}},
		Keys: []string{"attn"},
		OK:   i%2 == 0,
	}
}

func TestGetOrComputeComputesOnce(t *testing.T) {
	st := New(64)
	k := testKey(1)
	calls := 0
	e, disp := st.GetOrCompute(k, func() Entry { calls++; return testEntry(1) })
	if disp != Computed || calls != 1 {
		t.Fatalf("first lookup: disposition %v, %d compute calls; want computed once", disp, calls)
	}
	if e.Fwd != 1.5 || e.Bwd != 3.25 {
		t.Fatalf("entry round-trip: got %+v", e)
	}
	e2, disp2 := st.GetOrCompute(k, func() Entry { calls++; return testEntry(99) })
	if disp2 != Hit || calls != 1 {
		t.Fatalf("second lookup: disposition %v, %d compute calls; want hit without recompute", disp2, calls)
	}
	if e2.Fwd != e.Fwd || e2.Strategy()["attn"] != 1 {
		t.Fatalf("hit returned a different entry: %+v", e2)
	}
	if got := st.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}

func TestLRUEviction(t *testing.T) {
	// The bound is exactly max entries, whatever the keys: the (max+1)th
	// distinct key evicts the least recently used one.
	const max = 3
	st := New(max)
	for i := 0; i <= max; i++ {
		st.GetOrCompute(testKey(i), func() Entry { return testEntry(i) })
	}
	if got := st.Len(); got != max {
		t.Fatalf("Len = %d after overflow, want %d", got, max)
	}
	if s := st.StatsSnapshot(); s.Evictions != 1 || s.Entries != max {
		t.Fatalf("evictions = %d, entries = %d; want 1, %d", s.Evictions, s.Entries, max)
	}
	// Key 1 survived; key 0 was evicted, so looking it up computes again.
	if _, disp := st.GetOrCompute(testKey(1), func() Entry { return testEntry(1) }); disp != Hit {
		t.Fatalf("surviving key came back as %v, want hit", disp)
	}
	if _, disp := st.GetOrCompute(testKey(0), func() Entry { return testEntry(0) }); disp != Computed {
		t.Fatalf("evicted key came back as %v, want computed", disp)
	}
}

func TestSingleflightSharesOneCompute(t *testing.T) {
	st := New(1024)
	k := testKey(7)
	var computes atomic.Int64
	gate := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	dispositions := make([]Disposition, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			_, d := st.GetOrCompute(k, func() Entry {
				computes.Add(1)
				return testEntry(7)
			})
			dispositions[i] = d
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times under contention, want exactly 1", got)
	}
	var computed, shared, hit int
	for _, d := range dispositions {
		switch d {
		case Computed:
			computed++
		case Shared:
			shared++
		case Hit:
			hit++
		}
	}
	if computed != 1 {
		t.Fatalf("%d leaders, want 1 (shared %d, hit %d)", computed, shared, hit)
	}
	s := st.StatsSnapshot()
	if s.Misses != 1 || s.Hits+s.Shared != waiters-1 {
		t.Fatalf("stats %+v inconsistent with %d lookups", s, waiters)
	}
}

func TestAbandonedComputeRetries(t *testing.T) {
	st := New(64)
	k := testKey(3)
	func() {
		defer func() { recover() }()
		st.GetOrCompute(k, func() Entry { panic("solver died") })
	}()
	if got := st.Len(); got != 0 {
		t.Fatalf("store holds %d entries after a panicked compute, want 0 (complete-or-absent)", got)
	}
	e, disp := st.GetOrCompute(k, func() Entry { return testEntry(3) })
	if disp != Computed || e.Fwd != testEntry(3).Fwd {
		t.Fatalf("retry after abandoned compute: disposition %v entry %+v", disp, e)
	}
}

func TestStatsHitRate(t *testing.T) {
	st := New(64)
	for i := 0; i < 4; i++ {
		st.GetOrCompute(testKey(i), func() Entry { return testEntry(i) })
	}
	for i := 0; i < 4; i++ {
		st.GetOrCompute(testKey(i), func() Entry { t.Fatal("recompute on hit"); return Entry{} })
	}
	s := st.StatsSnapshot()
	if s.Hits != 4 || s.Misses != 4 || s.Entries != 4 {
		t.Fatalf("stats %+v, want 4 hits, 4 misses, 4 entries", s)
	}
}

func TestKeyStringRoundTrip(t *testing.T) {
	k := testKey(0x1234)
	parsed, err := ParseKey(k.String())
	if err != nil || parsed != k {
		t.Fatalf("round trip: %v, %v", parsed, err)
	}
	if _, err := ParseKey("zz"); err == nil {
		t.Fatal("ParseKey accepted garbage")
	}
	if _, err := ParseKey("abcd"); err == nil {
		t.Fatal("ParseKey accepted a short key")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	st := New(1024)
	for i := 0; i < 20; i++ {
		st.GetOrCompute(testKey(i), func() Entry { return testEntry(i) })
	}
	if err := st.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	fresh := New(1024)
	if err := fresh.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != st.Len() {
		t.Fatalf("restored %d entries, saved %d", fresh.Len(), st.Len())
	}
	for i := 0; i < 20; i++ {
		e, disp := fresh.GetOrCompute(testKey(i), func() Entry {
			t.Fatalf("restored store recomputed key %d", i)
			return Entry{}
		})
		if disp != Hit {
			t.Fatalf("key %d: disposition %v, want hit", i, disp)
		}
		want := testEntry(i)
		if e.Fwd != want.Fwd || e.Bwd != want.Bwd || e.OK != want.OK || e.Strategy()["attn"] != i {
			t.Fatalf("key %d: restored entry %+v differs from saved %+v", i, e, want)
		}
	}
}

// TestEntryCodecSpellsStrategyByKey pins the wire form of a strategy: the
// sorted object of its non-zero counts by key, {} when it names no unit, and
// a decode that reads the same strategy back with the keys sorted.
func TestEntryCodecSpellsStrategyByKey(t *testing.T) {
	for _, c := range []struct {
		e    Entry
		want string
	}{
		{Entry{Sol: recompute.Solution{Saved: []int32{2, 0, 1}}, Keys: []string{"b", "c", "a"}}, `"Saved":{"a":1,"b":2}`},
		{Entry{Sol: recompute.Solution{Feasible: true}}, `"Saved":{}`},
	} {
		data, err := json.Marshal(wire(c.e))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), c.want) {
			t.Fatalf("%+v encodes as %s, want %s in it", c.e, data, c.want)
		}
		var w wireEntry
		if err := json.Unmarshal(data, &w); err != nil {
			t.Fatal(err)
		}
		back := w.entry()
		if !reflect.DeepEqual(back.Strategy(), c.e.Strategy()) || !sort.StringsAreSorted(back.Keys) || len(back.Keys) != len(back.Sol.Saved) {
			t.Fatalf("%s decodes as %+v, strategy %v; want %v", data, back, back.Strategy(), c.e.Strategy())
		}
		if again, err := json.Marshal(wire(back)); err != nil || string(again) != string(data) {
			t.Fatalf("re-encoding %s gives %s (err %v)", data, again, err)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	st := New(1024)
	for i := 0; i < 10; i++ {
		st.GetOrCompute(testKey(i), func() Entry { return testEntry(i) })
	}
	if err := st.SaveSnapshot(p1); err != nil {
		t.Fatal(err)
	}
	// Perturb recency, then save again: recency must not leak into the bytes.
	st.GetOrCompute(testKey(3), func() Entry { return testEntry(3) })
	if err := st.SaveSnapshot(p2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("two saves of one population differ byte-for-byte")
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.json")
	if err := New(16).SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	fresh := New(16)
	if err := fresh.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 0 {
		t.Fatalf("restored empty snapshot has %d entries", fresh.Len())
	}
}

func TestSnapshotRejectsCorruptionAndVersionSkew(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	st := New(64)
	st.GetOrCompute(testKey(1), func() Entry { return testEntry(1) })
	if err := st.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte: checksum must catch it.
	corrupt := strings.Replace(string(data), `"Fwd":1.5`, `"Fwd":9.5`, 1)
	if corrupt == string(data) {
		t.Fatal("test setup: payload substring not found")
	}
	cp := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(cp, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := New(64).LoadSnapshot(cp); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt snapshot loaded: %v", err)
	}

	// Version skew must be rejected before any decoding.
	skew := strings.Replace(string(data), fmt.Sprintf(`"version":%d`, SnapshotVersion), `"version":999`, 1)
	vp := filepath.Join(dir, "skew.json")
	if err := os.WriteFile(vp, []byte(skew), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := New(64).LoadSnapshot(vp); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version-skewed snapshot loaded: %v", err)
	}

	// A missing file surfaces as os.IsNotExist so daemons can start cold.
	if err := New(64).LoadSnapshot(filepath.Join(dir, "nope.json")); !os.IsNotExist(err) {
		t.Fatalf("missing snapshot: err = %v, want IsNotExist", err)
	}
}

// snapshotBytes renders entries (an arbitrary JSON payload) as a snapshot file
// whose version, count and checksum are all valid.
func snapshotBytes(t testing.TB, count int, entries string) []byte {
	t.Helper()
	sum := sha256.Sum256([]byte(entries))
	data, err := json.Marshal(snapshotFile{
		Version:  SnapshotVersion,
		Count:    count,
		Checksum: hex.EncodeToString(sum[:]),
		Entries:  json.RawMessage(entries),
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// badKeySnapshot is a checksum-valid snapshot whose second key is malformed.
func badKeySnapshot(t testing.TB) []byte {
	return snapshotBytes(t, 2, fmt.Sprintf(`[{"key":%q,"entry":{"Fwd":1}},{"key":"zz","entry":{"Fwd":2}}]`, testKey(1)))
}

// TestLoadSnapshotAllOrNothing: a snapshot that passes the checksum but
// carries one malformed key must fail without inserting the entries before
// it — serve.New logs and skips such a file, and must not keep a prefix.
func TestLoadSnapshotAllOrNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "badkey.json")
	if err := os.WriteFile(path, badKeySnapshot(t), 0o644); err != nil {
		t.Fatal(err)
	}
	st := New(64)
	if err := st.LoadSnapshot(path); err == nil || !strings.Contains(err.Error(), "invalid key") {
		t.Fatalf("malformed key loaded: %v", err)
	}
	if got := st.Len(); got != 0 {
		t.Fatalf("failed load left %d entries behind, want 0", got)
	}
}

// FuzzSnapshotLoad feeds arbitrary bytes to LoadSnapshot on a populated
// store: it must never panic, and a load that reports an error must leave the
// store's population exactly as it was.
func FuzzSnapshotLoad(f *testing.F) {
	valid := New(64)
	for i := 0; i < 3; i++ {
		valid.GetOrCompute(testKey(10+i), func() Entry { return testEntry(i) })
	}
	vp := filepath.Join(f.TempDir(), "valid.json")
	if err := valid.SaveSnapshot(vp); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(vp)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(badKeySnapshot(f))
	f.Add(snapshotBytes(f, 1, `[]`))
	f.Add([]byte(`{"version":1,"count":0,"checksum":"","entries":null}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st := New(64)
		st.GetOrCompute(testKey(1), func() Entry { return testEntry(1) })
		st.GetOrCompute(testKey(2), func() Entry { return testEntry(2) })
		before := st.cache.Snapshot()
		if st.restore("fuzz", data) == nil {
			return
		}
		if after := st.cache.Snapshot(); !reflect.DeepEqual(after, before) {
			t.Fatalf("failed load changed the store:\nbefore %+v\nafter  %+v", before, after)
		}
	})
}
