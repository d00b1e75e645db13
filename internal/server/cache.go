// Package server implements the dtnsimd simulation service: a job
// manager that executes scenario and sweep specs on a bounded worker
// pool, a content-addressed result cache keyed by the specs' canonical
// JSON (Scenario.CanonicalKey / SweepSpec.CanonicalKey), and the /v1
// REST API over both. Because every simulation is a deterministic
// function of its normalized spec (seed included), a result computed
// once is valid forever: repeat submissions — any JSON spelling, any
// worker count, before or after a daemon restart — return byte-
// identical bodies without running the engine again.
//
// DESIGN.md §11 documents the architecture; package client holds the
// wire types.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Artifact names within one cache entry. Scenario entries carry all
// three; sweep entries have no event stream.
const (
	fileResult = "result.json"
	fileSeries = "series.csv"
	fileEvents = "events.csv"
	fileMeta   = "meta.json"
)

// cacheMeta is the entry's manifest, written last: its presence marks
// the entry complete, and its digests let reads detect torn or
// corrupted files (which are then treated as misses, never served).
type cacheMeta struct {
	Kind string `json:"kind"`
	Key  string `json:"key"`
	// Spec is the normalized spec JSON the key hashes.
	Spec json.RawMessage `json:"spec"`
	// Files maps artifact name to hex SHA-256 of its bytes.
	Files map[string]string `json:"files"`
}

// cache is a content-addressed result store on disk. Entries live at
// root/<kind>/<key[:2]>/<key>/ — derivable from a job id alone, which
// is what lets results survive daemon restarts. Writes are atomic
// (staging directory + rename), so a crash mid-write leaves either no
// entry or a complete one; concurrent writers of the same key are
// harmless because both write identical bytes and the loser discards.
type cache struct {
	root string
}

func newCache(root string) (*cache, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("server: cache root: %w", err)
	}
	return &cache{root: root}, nil
}

// dir is the entry directory for (kind, key). The two-hex-digit shard
// level keeps any one directory from accumulating every entry.
func (c *cache) dir(kind, key string) string {
	return filepath.Join(c.root, kind, key[:2], key)
}

func sha256hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// errDamaged wraps a read of an entry that is not what its manifest
// says: manifest gone or unreadable, an artifact missing, or an
// artifact whose bytes fail their digest.
var errDamaged = errors.New("server: cache entry damaged")

// manifest loads and checks an entry's meta.json without touching its
// artifacts. A missing entry, or one whose manifest is corrupt or names
// another entry, returns (nil, nil).
func (c *cache) manifest(kind, key string) (*cacheMeta, error) {
	raw, err := os.ReadFile(filepath.Join(c.dir(kind, key), fileMeta))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: cache meta: %w", err)
	}
	var meta cacheMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, nil // corrupt manifest: miss
	}
	if meta.Kind != kind || meta.Key != key || len(meta.Files) == 0 {
		return nil, nil
	}
	return &meta, nil
}

// get loads an entry's manifest and verifies every artifact against it:
// the hit-or-miss decision. A missing entry returns (nil, nil); a
// present but incomplete or corrupt entry is also a miss (the next put
// replaces it).
func (c *cache) get(kind, key string) (*cacheMeta, error) {
	meta, err := c.manifest(kind, key)
	if meta == nil || err != nil {
		return nil, err
	}
	for name, want := range meta.Files {
		data, err := os.ReadFile(filepath.Join(c.dir(kind, key), name))
		if err != nil || sha256hex(data) != want {
			return nil, nil // torn or corrupted artifact: miss
		}
	}
	return meta, nil
}

// read returns one artifact's bytes. It reads and hashes that file
// alone and returns it only if it matches the manifest's digest, so
// every byte served was verified by the read that serves it; a damaged
// file wraps errDamaged and is never returned.
func (c *cache) read(kind, key, name string) ([]byte, error) {
	meta, err := c.manifest(kind, key)
	if err != nil {
		return nil, err
	}
	if meta == nil {
		return nil, fmt.Errorf("%w: %s/%s has no manifest", errDamaged, kind, key)
	}
	want, ok := meta.Files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s has no %s", errNotFound, kind, key, name)
	}
	data, err := os.ReadFile(filepath.Join(c.dir(kind, key), name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s/%s: %s missing", errDamaged, kind, key, name)
	}
	if err != nil {
		return nil, fmt.Errorf("server: cache read: %w", err)
	}
	if sha256hex(data) != want {
		return nil, fmt.Errorf("%w: %s/%s: %s fails its digest", errDamaged, kind, key, name)
	}
	return data, nil
}

// put writes a complete entry atomically: all artifacts plus the
// manifest go into a staging directory, which is renamed into place in
// one step. A damaged entry in the way is moved aside first. If another
// writer won the race to an intact entry the staging copy is discarded
// — the bytes are identical by construction.
func (c *cache) put(kind, key string, spec []byte, files map[string][]byte) error {
	dst := c.dir(kind, key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("server: cache shard: %w", err)
	}
	staging, err := os.MkdirTemp(filepath.Dir(dst), "."+key[:8]+".staging-")
	if err != nil {
		return fmt.Errorf("server: cache staging: %w", err)
	}
	defer os.RemoveAll(staging)

	meta := cacheMeta{Kind: kind, Key: key, Spec: spec, Files: map[string]string{}}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(staging, name), files[name], 0o644); err != nil {
			return fmt.Errorf("server: cache write: %w", err)
		}
		meta.Files[name] = sha256hex(files[name])
	}
	manifest, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("server: cache manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(staging, fileMeta), manifest, 0o644); err != nil {
		return fmt.Errorf("server: cache write: %w", err)
	}
	err = os.Rename(staging, dst)
	if err == nil {
		return nil
	}
	if meta, _ := c.get(kind, key); meta != nil {
		return nil // lost the race to an identical entry
	}
	// A damaged entry holds the name: rename it aside in one step, so
	// readers see it or ours, never a half-deleted directory.
	damaged := staging + ".damaged"
	if err := os.Rename(dst, damaged); err == nil {
		defer os.RemoveAll(damaged)
	}
	if err := os.Rename(staging, dst); err != nil {
		if meta, _ := c.get(kind, key); meta != nil {
			return nil // another writer replaced it first
		}
		return fmt.Errorf("server: cache commit: %w", err)
	}
	return nil
}
