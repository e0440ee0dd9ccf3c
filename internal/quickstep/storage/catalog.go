package storage

import (
	"fmt"
	"sort"
	"sync"
)

// Catalog maps table names to relations, mirroring the RDBMS catalog whose
// update overhead RecStep's optimizations are careful to control.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Relation
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Relation)}
}

// Create registers a new empty table. It fails if the name is taken.
func (c *Catalog) Create(name string, colNames []string) (*Relation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	r := NewRelation(name, colNames)
	c.tables[name] = r
	return r, nil
}

// Adopt registers an existing relation under its own name, replacing any
// previous table with that name. Used by the engine to install computed
// results (e.g. swapping in a freshly deduplicated delta).
func (c *Catalog) Adopt(r *Relation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[r.Name()] = r
}

// Get looks a table up.
func (c *Catalog) Get(name string) (*Relation, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.tables[name]
	return r, ok
}

// MustGet looks a table up and panics when absent; for engine-internal names
// whose existence is an invariant.
func (c *Catalog) MustGet(name string) *Relation {
	r, ok := c.Get(name)
	if !ok {
		panic(fmt.Sprintf("catalog: missing table %q", name))
	}
	return r
}

// Drop removes a table. Dropping an unknown table is a no-op, matching the
// engine's use for temporaries.
func (c *Catalog) Drop(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.tables, name)
}

// Names returns all table names, sorted, for deterministic iteration.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Relations returns a snapshot of every registered relation, in no
// particular order, for sweeps that visit each table once and need no name.
func (c *Catalog) Relations() []*Relation {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Relation, 0, len(c.tables))
	for _, r := range c.tables {
		out = append(out, r)
	}
	return out
}
