// The Service is the named-collection registry: a root directory whose
// subdirectories each hold one collection (marked by collection.json).
// It owns collection lifecycle — create, open-on-start, drop — and
// hands out refcounted handles so a drop cannot tear a collection down
// under an in-flight request.

package collection

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ErrNotFound reports a request for a collection the service does not
// have.
var ErrNotFound = errors.New("collection: not found")

// ErrExists reports a create for a name already in use.
var ErrExists = errors.New("collection: already exists")

// ErrDropped reports an operation raced with Drop and lost.
var ErrDropped = errors.New("collection: dropped")

// Service is a registry of named collections under one root directory.
// All methods are safe for concurrent use.
type Service struct {
	root string
	opts Options

	// mu ranks below every fix.DB lock: it may be held while calling
	// into a DB (registry → engine), never the reverse.
	mu sync.Mutex // lockcheck: order 10
	// cols maps name → live handle. // guarded by mu
	cols map[string]*handle
}

// handle pairs a collection with the refcount that defers Drop until
// in-flight requests release it.
type handle struct {
	col *Collection
	// wg counts outstanding Acquire references. Drop waits on it after
	// unlinking the handle, so new references cannot arrive while it
	// waits.
	wg sync.WaitGroup
}

// OpenService opens every collection under root (creating root if
// needed): each subdirectory with a manifest is opened with the given
// runtime options, each shard catching its index up to its heap. The same options apply
// to collections created later, so setting Options.Maintain here is the
// one opt-in that gives every shard the service will ever hold its
// background maintainer. Subdirectories without a
// manifest are ignored, so the root can host unrelated files. A shard
// that fails to open fails the whole service — serving with silently
// missing collections is worse than not starting.
func OpenService(root string, opts Options) (*Service, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	svc := &Service{root: root, opts: opts, cols: make(map[string]*handle)}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		col, err := Open(dir, opts)
		if err != nil {
			if errors.Is(err, ErrNoManifest) {
				continue
			}
			_ = svc.Close()
			return nil, fmt.Errorf("collection: opening %s: %w", e.Name(), err)
		}
		svc.cols[col.Name()] = &handle{col: col}
	}
	return svc, nil
}

// Create creates a new named collection and registers it. The spec's
// Name must match name (an empty spec Name is filled in).
func (s *Service) Create(ctx context.Context, name string, spec Spec) (*Collection, error) {
	if spec.Name == "" {
		spec.Name = name
	}
	if spec.Name != name {
		return nil, fmt.Errorf("collection: spec name %q does not match %q", spec.Name, name)
	}
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if _, ok := s.cols[name]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	// Reserve the name with a nil-collection handle so concurrent
	// creates of the same name fail fast while this one builds shards
	// outside the lock.
	h := &handle{}
	s.cols[name] = h
	s.mu.Unlock()

	col, err := Create(ctx, filepath.Join(s.root, name), spec, s.opts)
	s.mu.Lock()
	if err != nil {
		delete(s.cols, name)
		s.mu.Unlock()
		return nil, err
	}
	h.col = col
	s.mu.Unlock()
	return col, nil
}

// Acquire returns the named collection and a release func that must be
// called when the caller is done with it (typically deferred for the
// life of one request). Drop blocks until every acquired reference is
// released.
func (s *Service) Acquire(name string) (*Collection, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.cols[name]
	if !ok || h.col == nil {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	h.wg.Add(1)
	var once sync.Once
	return h.col, func() { once.Do(h.wg.Done) }, nil
}

// Names returns the registered collection names, sorted.
func (s *Service) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.cols))
	for name, h := range s.cols {
		if h.col != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Drop unregisters the named collection, waits for in-flight references
// to release, closes it and deletes its directory. The wait means Drop
// can block behind a slow query; the unlink happens first, so no new
// work can start on the collection while Drop waits.
func (s *Service) Drop(name string) error {
	s.mu.Lock()
	h, ok := s.cols[name]
	if !ok || h.col == nil {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(s.cols, name)
	s.mu.Unlock()
	h.wg.Wait()
	if err := h.col.Close(); err != nil {
		return err
	}
	return os.RemoveAll(filepath.Join(s.root, name))
}

// Close closes every collection without saving (their heaps hold every
// acknowledged write). The service is unusable afterwards.
func (s *Service) Close() error {
	s.mu.Lock()
	cols := make([]*handle, 0, len(s.cols))
	for _, h := range s.cols {
		cols = append(cols, h)
	}
	s.cols = make(map[string]*handle)
	s.mu.Unlock()
	var first error
	for _, h := range cols {
		if h.col == nil {
			continue
		}
		h.wg.Wait()
		if err := h.col.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
