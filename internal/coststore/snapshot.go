package coststore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
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
// back to the same bits), and the Solution's Saved map marshals with sorted
// keys — so the whole snapshot is deterministic: saving one population twice
// yields byte-identical files (TestSnapshotDeterministic).
type snapshotEntry struct {
	Key   string `json:"key"`
	Entry Entry  `json:"entry"`
}

// SaveSnapshot writes the store's current population to path, atomically
// (temp file + rename) so a crash mid-save never leaves a torn snapshot. The
// encoding is deterministic for a given population: entries sorted by key,
// version-stamped and checksummed.
func (st *Store) SaveSnapshot(path string) error {
	entries := []snapshotEntry{} // an empty store marshals as [], not null
	for _, p := range st.cache.Snapshot() {
		entries = append(entries, snapshotEntry{Key: p.Key.String(), Entry: p.Val})
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
		st.cache.Put(keys[i], se.Entry)
	}
	return nil
}
