// Package registry is the multi-model serving table behind udtserve: a set
// of named, independently versioned model entries, each with the refcounted
// generation drain that single-model serving used, plus per-model metrics,
// per-model stream-admission budgets, and optional shadow generations for
// pre-promotion comparison.
//
// Concurrency contract, per entry:
//
//   - Acquire/Release bracket every request's model use. A generation's
//     mapping (binary models alias an mmap'd file) is released only when the
//     published reference and every in-flight reference are gone.
//   - Reload, MaybeReload and the load at Open serialise on the entry's
//     reloadMu; the file stamp used for watch change-detection is plain state
//     guarded by that same mutex, so a poller and a concurrent POST /reload
//     can never record a stamp for content that was never loaded.
//   - Remove (eviction) marks the entry closed before retiring its
//     generations, so acquirers backing off a retired generation observe the
//     closure instead of spinning; requests already holding a reference
//     drain normally.
package registry

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"udt/internal/modelio"
	"udt/internal/obs"
)

// Active is one loaded model generation plus its serving metadata. Entries
// publish it through an atomic pointer, so a reload swaps models without
// locks and requests already running keep the instance they loaded.
//
// Binary models alias an mmap'd file, so "keep the instance" is a memory-
// safety requirement, not just a consistency nicety: the mapping may only be
// released once no request can still be reading it. Each generation is
// therefore reference-counted — refs starts at 1 (the "published"
// reference), every request holds one around its model use, and a reload
// retires the old generation by dropping the published reference. Whoever
// takes refs to zero closes the model; for JSON models that is a no-op, and
// the close itself is idempotent all the way down (binfmt runs its unmap
// exactly once).
type Active struct {
	Model      *modelio.Model
	Generation int64 // 1 at entry creation, +1 per successful reload
	LoadedAt   time.Time

	refs    atomic.Int64 // published reference + in-flight requests
	retired atomic.Bool  // set once a newer generation is published
	log     *slog.Logger
}

// Release drops one reference; the last one out closes the model (unmapping
// it, if binary). The zero-crossing race between a retiring reload and a
// backing-off acquirer is safe because Model.Close is idempotent.
func (am *Active) Release() {
	if am.refs.Add(-1) == 0 {
		if err := am.Model.Close(); err != nil {
			am.log.Error("close model generation", "generation", am.Generation, "err", err)
		}
	}
}

// retire marks the generation superseded and drops its published reference.
// In-flight requests keep serving from it; the mapping is released when the
// last of them finishes.
func (am *Active) retire() {
	am.retired.Store(true)
	am.Release()
}

// Metrics is one entry's serving accounting. The request/error/latency
// dimensions are obs.EndpointMetrics fed by obs.Middleware.WrapModel — the
// registry inherits the middleware's accounting wholesale instead of growing
// its own — and the rest are plain counters the handlers bump.
type Metrics struct {
	Classify obs.EndpointMetrics // /v1/models/{name}/classify (+ legacy /classify on the default entry)
	Stream   obs.EndpointMetrics // /v1/models/{name}/classify/stream

	Tuples         atomic.Int64 // tuples classified for this model, both endpoints
	StreamRejected atomic.Int64 // streams refused by the entry's MaxStreams budget

	ShadowComparisons      atomic.Int64 // tuples mirrored to the shadow generation
	ShadowArgmaxDivergence atomic.Int64 // mirrored tuples whose predicted class differed
	ShadowDistDivergence   atomic.Int64 // mirrored tuples whose distribution differed (L∞ > DistTolerance)
}

// Entry is one named model in the registry. Exported scalar fields are set
// at construction and immutable afterwards.
type Entry struct {
	Name string
	Path string
	// ShadowPath, when non-empty, names a candidate model file loaded
	// alongside every primary (re)load; traffic can be mirrored to it via
	// ShadowCompare and divergence read from Metrics before promotion.
	ShadowPath string
	// MaxStreams caps concurrent streams for this entry when positive — the
	// per-model QoS budget generalising udtserve's global -max-streams.
	MaxStreams int

	// ActiveStreams counts this entry's open stream requests (capped or
	// not); the serving layer brackets streams with Add(1)/Add(-1).
	ActiveStreams atomic.Int64

	Metrics Metrics

	reloadMu   sync.Mutex // serialises reloads: stat + file read + generation + swap
	generation atomic.Int64
	active     atomic.Pointer[Active]
	shadow     atomic.Pointer[Active]
	// lastStamp is the identity of the model file last loaded (or last
	// attempted by the watch poller). Guarded by reloadMu: both the poller
	// and explicit reloads write it, and an unserialised write could record
	// a stamp for content that was never loaded.
	lastStamp fileStamp

	closed atomic.Bool // set by Remove/Close before retiring; stops new acquires
	log    *slog.Logger
}

// Acquire returns the entry's current model generation with a reference
// held; the caller must Release it when done. It returns nil once the entry
// has been evicted. The retire/acquire race is closed by re-checking retired
// after the increment: an acquirer that caught a generation mid-retirement
// backs off and takes the new pointer — or observes the eviction.
func (e *Entry) Acquire() *Active {
	for {
		if e.closed.Load() {
			return nil
		}
		am := e.active.Load()
		am.refs.Add(1)
		if !am.retired.Load() {
			return am
		}
		am.Release()
	}
}

// AcquireShadow returns the shadow generation with a reference held, or nil
// when no shadow is configured or the entry is evicted.
func (e *Entry) AcquireShadow() *Active {
	for {
		if e.closed.Load() {
			return nil
		}
		am := e.shadow.Load()
		if am == nil {
			return nil
		}
		am.refs.Add(1)
		if !am.retired.Load() {
			return am
		}
		am.Release()
	}
}

// Generation reports the entry's current generation number.
func (e *Entry) Generation() int64 { return e.generation.Load() }

// fileStamp identifies a version of a model file for watch change
// detection. Size is compared alongside mtime because coarse filesystem
// clocks (1s on some mounts) can give two quick deploys the same mtime.
type fileStamp struct {
	modNanos int64
	size     int64
}

// stampOf stats the path; a stat failure yields the zero stamp, which never
// equals a real one.
func stampOf(path string) fileStamp {
	fi, err := os.Stat(path)
	if err != nil {
		return fileStamp{}
	}
	return fileStamp{modNanos: fi.ModTime().UnixNano(), size: fi.Size()}
}

// loadLocked reads the entry's model file (and shadow, if configured) and
// stamps the next generation number. Caller holds reloadMu. The stat happens
// BEFORE the read: if the file is replaced between the two calls the
// recorded stamp is older than the loaded content, so the watch poller's
// worst case is one redundant reload — never a newer file mistaken for
// already-loaded.
func (e *Entry) loadLocked() (*Active, error) {
	stamp := stampOf(e.Path)
	m, err := modelio.Load(e.Path)
	if err != nil {
		return nil, err
	}
	var sm *modelio.Model
	if e.ShadowPath != "" {
		sm, err = modelio.Load(e.ShadowPath)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("shadow: %w", err)
		}
	}
	e.lastStamp = stamp
	gen := e.generation.Add(1)
	am := newActive(m, gen, e.log)
	if sm != nil {
		sh := newActive(sm, gen, e.log)
		if old := e.shadow.Swap(sh); old != nil {
			old.retire()
		}
	}
	return am, nil
}

func newActive(m *modelio.Model, gen int64, log *slog.Logger) *Active {
	am := &Active{Model: m, Generation: gen, LoadedAt: time.Now(), log: log}
	am.refs.Store(1) // the published reference
	return am
}

// Reload re-reads the entry's model file and swaps it in atomically — the
// shared hot-reload path of POST /reload and the watch poller. On failure
// the previous model keeps serving. Reloads are serialised so a slow file
// read can never overwrite a newer model with an older one (generation moves
// strictly forward).
func (e *Entry) Reload() (*Active, error) {
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	am, err := e.loadLocked()
	if err != nil {
		return nil, err
	}
	old := e.active.Swap(am)
	old.retire()
	return am, nil
}

// MaybeReload is the watch-poller tick: stat the file and reload only when
// its identity changed since the last load (or last failed attempt). The
// stamp comparison and the reload run under one reloadMu hold, so a
// concurrent POST /reload cannot interleave between them. It returns the new
// generation when a reload happened.
func (e *Entry) MaybeReload() (am *Active, reloaded bool, err error) {
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	stamp := stampOf(e.Path)
	if stamp == (fileStamp{}) || stamp == e.lastStamp {
		return nil, false, nil
	}
	// Remember the stamp that triggered this attempt even if the load fails,
	// so a persistently broken file is reported once per write, not once per
	// tick. loadLocked overwrites it on success (with a pre-read stat).
	e.lastStamp = stamp
	am, err = e.loadLocked()
	if err != nil {
		return nil, true, err
	}
	old := e.active.Swap(am)
	old.retire()
	return am, true, nil
}

// evict marks the entry closed and retires its generations. In-flight
// requests drain; new Acquires return nil.
func (e *Entry) evict() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	if am := e.active.Load(); am != nil {
		am.retire()
	}
	if sh := e.shadow.Swap(nil); sh != nil {
		sh.retire()
	}
}

// Options configures Open.
type Options struct {
	// Path is the model source: a model file (one entry named "default"), a
	// directory (one entry per model file, named by basename minus
	// extension), or a JSON manifest (see Manifest).
	Path string
	// Shadow, when non-empty, is a candidate model file attached to the
	// default entry — the single-model -shadow flag. Manifests carry shadows
	// per model instead.
	Shadow string
	// Log receives structured reload/close records. Defaults to a JSON
	// logger on stderr.
	Log *slog.Logger
}

// Manifest is the JSON document accepted by Open when Path names a .manifest
// file (or any non-directory that parses as one after failing the model
// sniff is NOT attempted — the manifest must be named explicitly via a
// ".manifest.json" / ".manifest" suffix). Model paths are relative to the
// manifest's directory.
type Manifest struct {
	Models []ManifestModel `json:"models"`
}

// ManifestModel is one manifest entry.
type ManifestModel struct {
	Name       string `json:"name"`
	Path       string `json:"path"`
	Shadow     string `json:"shadow,omitempty"`
	MaxStreams int    `json:"maxStreams,omitempty"`
	Default    bool   `json:"default,omitempty"`
}

// Registry is the named model table. The entry set is fixed between Open,
// Remove and Close; per-entry state is managed by the entries themselves.
type Registry struct {
	mu          sync.RWMutex
	entries     map[string]*Entry
	defaultName string
	opts        Options
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

// validName refuses names that cannot appear as a path segment of
// /v1/models/{name}/... or that would collide with path traversal.
func validName(name string) error {
	if !nameRE.MatchString(name) || name == "." || name == ".." {
		return fmt.Errorf("registry: invalid model name %q (want [A-Za-z0-9._-]+)", name)
	}
	return nil
}

// DefaultName is the entry name backing the legacy single-model routes.
const DefaultName = "default"

// Open builds a registry from a model file, a directory of model files, or
// a manifest, loading every model eagerly so a broken file fails startup,
// not first request.
func Open(opts Options) (*Registry, error) {
	if opts.Log == nil {
		opts.Log = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	r := &Registry{entries: map[string]*Entry{}, opts: opts}
	fi, err := os.Stat(opts.Path)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	switch {
	case fi.IsDir():
		if opts.Shadow != "" {
			return nil, fmt.Errorf("registry: shadow model requires a single-model path, got directory %s", opts.Path)
		}
		err = r.openDir(opts.Path)
	case isManifestPath(opts.Path):
		if opts.Shadow != "" {
			return nil, fmt.Errorf("registry: shadow model requires a single-model path; put per-model shadows in the manifest")
		}
		err = r.openManifest(opts.Path)
	default:
		err = r.add(DefaultName, opts.Path, opts.Shadow, 0, true)
	}
	if err != nil {
		r.Close()
		return nil, err
	}
	if len(r.entries) == 0 {
		return nil, fmt.Errorf("registry: no models found in %s", opts.Path)
	}
	return r, nil
}

// isManifestPath reports whether the path names a registry manifest rather
// than a model file.
func isManifestPath(path string) bool {
	base := strings.ToLower(filepath.Base(path))
	return strings.HasSuffix(base, ".manifest") || strings.HasSuffix(base, ".manifest.json")
}

// openDir creates one entry per regular file in dir, named by basename minus
// extension. A "default" entry (or a lone model) backs the legacy routes.
func (r *Registry) openDir(dir string) error {
	des, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	names := []string{}
	for _, de := range des {
		if de.IsDir() || strings.HasPrefix(de.Name(), ".") {
			continue
		}
		names = append(names, de.Name())
	}
	sort.Strings(names)
	for _, fn := range names {
		name := strings.TrimSuffix(fn, filepath.Ext(fn))
		if err := r.add(name, filepath.Join(dir, fn), "", 0, false); err != nil {
			return err
		}
	}
	r.pickDefault()
	return nil
}

// openManifest loads the manifest document; model paths resolve relative to
// the manifest's directory.
func (r *Registry) openManifest(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	var mf Manifest
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		return fmt.Errorf("registry: manifest %s: %w", path, err)
	}
	if dec.More() {
		return fmt.Errorf("registry: manifest %s: trailing data after document", path)
	}
	dir := filepath.Dir(path)
	resolve := func(p string) string {
		if p == "" || filepath.IsAbs(p) {
			return p
		}
		return filepath.Join(dir, p)
	}
	for _, mm := range mf.Models {
		if mm.Name == "" {
			return fmt.Errorf("registry: manifest %s: model with empty name", path)
		}
		if mm.MaxStreams < 0 {
			return fmt.Errorf("registry: manifest %s: model %q: maxStreams must be >= 0", path, mm.Name)
		}
		if err := r.add(mm.Name, resolve(mm.Path), resolve(mm.Shadow), mm.MaxStreams, mm.Default); err != nil {
			return err
		}
	}
	r.pickDefault()
	return nil
}

// add creates, loads, and registers one entry.
func (r *Registry) add(name, path, shadow string, maxStreams int, dflt bool) error {
	if err := validName(name); err != nil {
		return err
	}
	if _, dup := r.entries[name]; dup {
		return fmt.Errorf("registry: duplicate model name %q", name)
	}
	e := &Entry{
		Name:       name,
		Path:       path,
		ShadowPath: shadow,
		MaxStreams: maxStreams,
		log:        r.opts.Log.With("model", name),
	}
	e.reloadMu.Lock()
	am, err := e.loadLocked()
	e.reloadMu.Unlock()
	if err != nil {
		return fmt.Errorf("model %q: %w", name, err)
	}
	e.active.Store(am)
	r.entries[name] = e
	if dflt {
		if r.defaultName != "" && r.defaultName != name {
			e.evict()
			delete(r.entries, name)
			return fmt.Errorf("registry: both %q and %q marked default", r.defaultName, name)
		}
		r.defaultName = name
	}
	return nil
}

// pickDefault resolves the legacy-route entry for dir/manifest sources when
// none was marked explicitly: an entry literally named "default" wins,
// otherwise a lone entry serves as its own default. With several models and
// no marker there is no default — the legacy routes refuse with a clear
// error rather than guess.
func (r *Registry) pickDefault() {
	if r.defaultName != "" {
		return
	}
	if _, ok := r.entries[DefaultName]; ok {
		r.defaultName = DefaultName
		return
	}
	if len(r.entries) == 1 {
		for name := range r.entries {
			r.defaultName = name
		}
	}
}

// Get returns the named entry, or nil.
func (r *Registry) Get(name string) *Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.entries[name]
}

// Default returns the entry backing the legacy single-model routes, or nil
// when the registry has several models and no designated default.
func (r *Registry) Default() *Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.entries[r.defaultName]
}

// DefaultName returns the default entry's name ("" when there is none).
func (r *Registry) DefaultName() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.defaultName
}

// Names returns the entry names, sorted for deterministic iteration.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Entries returns the entries sorted by name.
func (r *Registry) Entries() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	es := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool { return es[i].Name < es[j].Name })
	return es
}

// Len reports the number of live entries.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Remove evicts the named entry: it leaves the table immediately, new
// acquires fail, and the model closes once in-flight requests drain. The
// default entry cannot be evicted — the legacy routes' contract would
// silently change under the caller.
func (r *Registry) Remove(name string) (*Entry, error) {
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: no model %q", name)
	}
	if name == r.defaultName && len(r.entries) > 1 {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: cannot evict default model %q", name)
	}
	delete(r.entries, name)
	if name == r.defaultName {
		r.defaultName = ""
	}
	r.mu.Unlock()
	e.evict()
	return e, nil
}

// Close evicts every entry. Models unmap as their in-flight references
// drain.
func (r *Registry) Close() {
	r.mu.Lock()
	es := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		es = append(es, e)
	}
	r.entries = map[string]*Entry{}
	r.defaultName = ""
	r.mu.Unlock()
	for _, e := range es {
		e.evict()
	}
}
