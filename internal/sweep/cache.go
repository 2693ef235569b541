package sweep

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"

	"livenas/internal/core"
)

// cacheSchema versions the on-disk entry layout and, together with the
// module version, the semantics of what a session computes. Bump it when a
// change alters session results without moving the module version (the
// usual case for a source tree built as "(devel)").
const cacheSchema = 1

// ConfigKey returns the content address of a session: the hex SHA-256 of
// the gob encoding of the canonical (Defaulted, Telemetry-free) config.
// Since the simulator is deterministic, this hash fully determines the
// session's Results, which is what makes it a sound cache key.
func ConfigKey(cfg core.Config) (string, error) {
	cfg = cfg.Defaulted()
	cfg.Telemetry = nil
	h := sha256.New()
	// A fresh encoder per hash keeps the byte stream self-contained (type
	// descriptors included every time), so keys are stable across processes.
	if err := gob.NewEncoder(h).Encode(cfg); err != nil {
		return "", fmt.Errorf("sweep: hashing config: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Version identifies the code that produces cache entries. Entries written
// by a different version are treated as misses (stale results
// self-invalidate rather than poisoning new sweeps).
func Version() string {
	v := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		v = bi.Main.Path + "@" + bi.Main.Version
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				v += "+" + s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				v += "+dirty"
			}
		}
	}
	return v + "/schema" + strconv.Itoa(cacheSchema)
}

// entry is the on-disk representation of one cached session.
type entry struct {
	Version string
	Key     string
	Results *core.Results
}

// Cache is a content-addressed, on-disk store of session Results, one gob
// file per canonical config hash. A nil *Cache is valid and always misses,
// so callers never branch on "caching enabled".
//
// Writes are atomic (temp file + rename), which makes concurrent writers —
// several sweep workers, even several processes sharing a directory —
// safe: the worst case is the same session computed twice, last writer
// wins with an identical payload.
type Cache struct {
	dir     string
	version string
}

// Open returns a cache rooted at dir, creating it if needed.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: opening cache: %w", err)
	}
	return &Cache{dir: dir, version: Version()}, nil
}

func (c *Cache) path(key string) string { return filepath.Join(c.dir, key+".gob") }

// Get returns the cached Results for key, or ok=false on a miss. An entry
// written by a different code version, or one that fails to decode, is a
// miss (and is removed so it isn't re-parsed every sweep).
func (c *Cache) Get(key string) (*core.Results, bool) {
	if c == nil {
		return nil, false
	}
	f, err := os.Open(c.path(key))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	var e entry
	if err := gob.NewDecoder(f).Decode(&e); err != nil || e.Version != c.version || e.Key != key {
		os.Remove(c.path(key))
		return nil, false
	}
	return e.Results, true
}

// Put persists res under key. The trainer timeline is materialized first:
// a restored Results carries no live telemetry registry, so everything a
// figure reads must survive in exported fields.
func (c *Cache) Put(key string, res *core.Results) error {
	if c == nil {
		return nil
	}
	res.TrainerTimeline()
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	defer os.Remove(tmp.Name())
	err = gob.NewEncoder(tmp).Encode(entry{Version: c.version, Key: key, Results: res})
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	return nil
}
