package coststore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"adapipe/internal/memory"
	"adapipe/internal/recompute"
)

// SnapshotVersion stamps the on-disk snapshot format. Loaders reject
// versions they do not understand instead of guessing.
const SnapshotVersion = 1

// snapshotFile is the on-disk container: a version stamp, the entry count,
// a SHA-256 checksum over the payload bytes, and the payload itself — the
// JSON array of entries sorted by key. The payload is embedded verbatim, so
// the checksum covers exactly the bytes that will be decoded.
type snapshotFile struct {
	Version  int             `json:"version"`
	Count    int             `json:"count"`
	Checksum string          `json:"checksum"`
	Entries  json.RawMessage `json:"entries"`
}

// snapshotEntry is one serialized entry. Float64 fields round-trip exactly
// through encoding/json (Go emits the shortest representation that parses
// back to the same bits), and the strategy marshals as a map with sorted
// keys — so the whole snapshot is deterministic: saving one population twice
// yields byte-identical files (TestSnapshotDeterministic).
type snapshotEntry struct {
	Key   string    `json:"key"`
	Entry wireEntry `json:"entry"`
}

// wireEntry is an Entry in the layout encoding/json gave it while strategies
// were maps from unit key to count, so snapshots keep their bytes across the
// change (TestSnapshotBytesUnchangedFromParent).
type wireEntry struct {
	Fwd, Bwd float64
	Sol      wireSolution
	Mem      memory.Breakdown
	OK       bool
}

// wireSolution puts Saved, the sorted object of non-zero counts by key, in its
// old place: the fields above hide the embedded Solution's, the rest follow.
type wireSolution struct {
	Feasible   bool
	SavedTime  float64
	SavedBytes int64
	Saved      map[string]int
	recompute.Solution
}

// wire spells e in the snapshot's layout.
func wire(e Entry) wireEntry {
	s := wireSolution{e.Sol.Feasible, e.Sol.SavedTime, e.Sol.SavedBytes, e.Strategy(), e.Sol}
	return wireEntry{e.Fwd, e.Bwd, s, e.Mem, e.OK}
}

// entry is the Entry w spells, its keys in sorted order.
func (w *wireEntry) entry() Entry {
	e := Entry{Fwd: w.Fwd, Bwd: w.Bwd, Sol: w.Sol.Solution, Mem: w.Mem, OK: w.OK}
	e.Sol.Feasible, e.Sol.SavedTime, e.Sol.SavedBytes = w.Sol.Feasible, w.Sol.SavedTime, w.Sol.SavedBytes
	e.Keys, e.Sol.Saved = make([]string, 0, len(w.Sol.Saved)), make([]int32, 0, len(w.Sol.Saved))
	for key := range w.Sol.Saved {
		e.Keys = append(e.Keys, key)
	}
	sort.Strings(e.Keys)
	for _, key := range e.Keys {
		e.Sol.Saved = append(e.Sol.Saved, int32(w.Sol.Saved[key]))
	}
	return e
}

// SaveSnapshot writes the store's current population to path, atomically
// (temp file + rename) so a crash mid-save never leaves a torn snapshot. The
// encoding is deterministic for a given population: entries sorted by key,
// version-stamped and checksummed.
func (st *Store) SaveSnapshot(path string) error {
	entries := []snapshotEntry{} // an empty store marshals as [], not null
	for _, p := range st.cache.Snapshot() {
		entries = append(entries, snapshotEntry{Key: p.Key.String(), Entry: wire(p.Val)})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	payload, err := json.Marshal(entries)
	if err != nil {
		return fmt.Errorf("coststore: encoding snapshot: %w", err)
	}
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(snapshotFile{
		Version:  SnapshotVersion,
		Count:    len(entries),
		Checksum: hex.EncodeToString(sum[:]),
		Entries:  payload,
	})
	if err != nil {
		return fmt.Errorf("coststore: encoding snapshot: %w", err)
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), ".coststore-*")
	if err != nil {
		return fmt.Errorf("coststore: saving snapshot: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("coststore: saving snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("coststore: saving snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("coststore: saving snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot restores a snapshot previously written by SaveSnapshot into
// the store, verifying the version stamp and the payload checksum before
// decoding a single entry, and every key before inserting one: a snapshot
// that fails to load leaves the store exactly as it was. Entries are inserted
// in key order; if the snapshot exceeds the store's bound, the LRU drops the
// earliest-inserted keys deterministically. A key the store already holds is
// refreshed with the snapshot's entry — both are the same pure function of
// the key.
func (st *Store) LoadSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return st.restore(path, data)
}

// restore is LoadSnapshot on the file's bytes; path only labels errors.
func (st *Store) restore(path string, data []byte) error {
	var f snapshotFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("coststore: decoding snapshot %s: %w", path, err)
	}
	if f.Version != SnapshotVersion {
		return fmt.Errorf("coststore: snapshot %s has version %d (this build speaks %d)", path, f.Version, SnapshotVersion)
	}
	sum := sha256.Sum256(f.Entries)
	if hex.EncodeToString(sum[:]) != f.Checksum {
		return fmt.Errorf("coststore: snapshot %s is corrupt (checksum mismatch)", path)
	}
	var entries []snapshotEntry
	if err := json.Unmarshal(f.Entries, &entries); err != nil {
		return fmt.Errorf("coststore: decoding snapshot %s: %w", path, err)
	}
	if len(entries) != f.Count {
		return fmt.Errorf("coststore: snapshot %s carries %d entries, header says %d", path, len(entries), f.Count)
	}
	keys := make([]Key, len(entries))
	for i, se := range entries {
		var err error
		if keys[i], err = ParseKey(se.Key); err != nil {
			return fmt.Errorf("coststore: snapshot %s: %w", path, err)
		}
	}
	for i, se := range entries {
		st.cache.Put(keys[i], se.Entry.entry())
	}
	return nil
}
