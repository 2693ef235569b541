package sweep

import "path/filepath"

// Len reports how many entries the cache currently holds on disk.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	m, _ := filepath.Glob(filepath.Join(c.dir, "*.gob"))
	return len(m)
}
