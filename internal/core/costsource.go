package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"adapipe/internal/coststore"
	"adapipe/internal/memory"
	"adapipe/internal/profile"
)

// CostSource is a shared backend for solved stage costs: the planner
// consults it on cost-table misses and publishes its own solves into it, so
// every planner a process constructs for the same model family amortizes the
// per-(stage, iso-class) knapsacks across requests instead of within one
// search only. *coststore.Store implements it; tests substitute scripted
// sources.
//
// Soundness contract: the key passed to GetOrCompute is a SHA-256 over the
// planner's family fingerprint (every input solveClass reads — the full cost
// profile, strategy, memory model, budget, quantum and search flags) plus
// the iso-class coordinates, so two planners that derive the same key would
// compute bit-identical entries. A source may therefore return any stored
// entry for the key, and plans built from source hits are byte-identical to
// plans built cold for every store state
// (TestDifferential's store legs).
type CostSource interface {
	GetOrCompute(key coststore.Key, compute func() coststore.Entry) (coststore.Entry, coststore.Disposition)
}

// familyInputs is the serialized family fingerprint: every planner input the
// per-range solve depends on. Notably NOT included: GlobalBatch (it only
// sets n, which shapes the partition DP, never a stage cost) and the
// partition mode (same reason) — which is exactly what lets a sweep over
// micro-batch counts or partition policies share all of its knapsack entries.
// The profile embeds the model config, device and strategy (TP shards the
// unit costs, DP the optimizer states, PP the in-flight count), so hashing it
// covers the derived numeric content rather than config names.
type familyInputs struct {
	Profile        *profile.Profile `json:"profile"`
	MemCapacity    int64            `json:"mem_capacity"`
	Memory         memory.Options   `json:"memory"`
	MemoryReserve  float64          `json:"memory_reserve"`
	Quantum        int64            `json:"quantum"`
	MaxDPStates    int64            `json:"max_dp_states"`
	DisableGCD     bool             `json:"disable_gcd"`
	DisableIso     bool             `json:"disable_isomorphism"`
	Recompute      string           `json:"recompute"`
	IgnoreMemLimit bool             `json:"ignore_memory_limit"`
}

// familyFingerprint hashes the planner's solve-relevant inputs into the
// 32-byte family prefix of its store keys. Deterministic: encoding/json
// marshals structs in field order, maps with sorted keys, and float64s in
// their exact shortest round-trip form.
func (pl *Planner) familyFingerprint() ([]byte, error) {
	raw, err := json.Marshal(familyInputs{
		Profile:        pl.prof,
		MemCapacity:    pl.cluster.Device.MemCapacity,
		Memory:         pl.opts.Memory,
		MemoryReserve:  pl.opts.MemoryReserve,
		Quantum:        pl.opts.Quantum,
		MaxDPStates:    pl.opts.MaxDPStates,
		DisableGCD:     pl.opts.DisableGCD,
		DisableIso:     pl.opts.DisableIsomorphism,
		Recompute:      pl.opts.Recompute.String(),
		IgnoreMemLimit: pl.opts.IgnoreMemoryLimit,
	})
	if err != nil {
		return nil, fmt.Errorf("core: fingerprinting cost family: %w", err)
	}
	sum := sha256.Sum256(raw)
	return sum[:], nil
}

// storeKey derives the content address of the class of layers i..j at stage
// s: SHA-256 over the 32-byte family prefix followed by the little-endian
// class coordinates. With isomorphism enabled the coordinates are (stage,
// length, kind·2+ends); with it disabled they are the raw (s, i, j) — the
// flag is part of the family fingerprint, so the two keying schemes never
// collide.
func (pl *Planner) storeKey(family []byte, s, i, j int) coststore.Key {
	if !pl.opts.DisableIsomorphism {
		i, j = j-i+1, pl.table.shapeIndex(i, j)%isoKindSlots
	}
	var buf [32 + 3*8]byte
	copy(buf[:32], family)
	binary.LittleEndian.PutUint64(buf[32:], uint64(int64(s)))
	binary.LittleEndian.PutUint64(buf[40:], uint64(int64(i)))
	binary.LittleEndian.PutUint64(buf[48:], uint64(int64(j)))
	return coststore.Key(sha256.Sum256(buf[:]))
}

// SetCostSource attaches a shared cost source. The planner's cost table stays
// in front of it (no hashing on the hot path): the source is consulted only
// for a class missing from the table that passed the static-memory gate, and
// the planner publishes its own solves back. Call it
// before the first Plan/PlanContext; a nil source detaches. The returned
// error (a failed family fingerprint) leaves the planner detached and is
// safe to ignore — an unattached planner just solves privately.
func (pl *Planner) SetCostSource(src CostSource) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if src == nil {
		pl.sv.src = nil
		return nil
	}
	if pl.sv.family == nil {
		fam, err := pl.familyFingerprint()
		if err != nil {
			return err
		}
		pl.sv.family = fam
	}
	pl.sv.src = src
	return nil
}
