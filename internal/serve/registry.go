package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	hpacml "repro"

	"repro/internal/nn"
	"repro/internal/serveapi"
)

// ModelSpec registers one named surrogate: a .gmod file served as a flat
// vector function of In input features to Out output features. Leave
// In/Out zero to infer both from the model file (possible whenever the
// network opens with a dense layer, which all the repo's MLP surrogates
// do).
type ModelSpec struct {
	Name string
	Path string
	// Ensemble lists additional member model files. When non-empty each
	// replica serves the deep ensemble {Path, Ensemble...} through an
	// EnsembleEngine: the response is the member-mean prediction. All
	// members must share the primary's I/O widths.
	Ensemble []string
	In       int
	Out      int
	// F32 serves the model through the single-precision inference path:
	// each replica's LocalEngine is built with WithFloat32Inference, so
	// it converts the weights to float32 once at load and runs batches
	// in single precision. Ensembles ignore it, as do models the f32
	// compiler cannot handle — those silently stay float64.
	F32 bool
	// I8 serves the model through the quantized int8 path: each
	// replica's LocalEngine is built with WithInt8Inference, so it
	// loads the ".quant" calibration sidecar beside the model file
	// (written by hpacml-quant) and compiles the int8 program. A
	// missing, corrupt, or gate-failed sidecar silently keeps the wider
	// path, and ensembles ignore it like F32. When both F32 and I8 are
	// set the engine prefers int8 where the sidecar allows it.
	I8 bool
}

// ModelInfo is the registry view of a hosted model (the /v1/models
// payload), defined in the shared wire schema.
type ModelInfo = serveapi.ModelInfo

// model is one registry entry: the shared bounded queue, the replica
// pool draining it, the serving stats, and the hot-reload state.
type model struct {
	name    string
	path    string
	members []string // every served model file: path first, then the ensemble
	in, out int

	// queue carries row ranges of admitted requests; depth counts the
	// rows admitted but not yet cut into a batch — the quantity
	// QueueCap bounds.
	queue    chan rowRange
	depth    atomic.Int64
	replicas []*replica
	stats    *modelStats

	// gen counts accepted reloads; replicas compare it against their own
	// generation at each batch boundary and refresh their engine on
	// mismatch, picking up the network checkReload published to the
	// shared cache.
	gen   atomic.Uint64
	sumMu sync.Mutex
	sum   [sha256.Size]byte
	// loadedAt is when the served weights were (re)loaded — provenance
	// for /v1/models, guarded by sumMu like the checksum it travels with.
	loadedAt time.Time
}

// newModel resolves the spec (loading the .gmod to infer or validate
// dimensions), checksums the file, publishes the loaded network to the
// shared model cache, and builds the replica pool. On failure every
// already-built replica is closed.
func newModel(spec ModelSpec, cfg Config, met *metrics) (*model, error) {
	if spec.Name == "" || spec.Path == "" {
		return nil, fmt.Errorf("serve: model spec needs a name and a path, got %+v", spec)
	}
	members := append([]string{spec.Path}, spec.Ensemble...)
	// Checksum the same bytes being loaded: hash first, then load, so a
	// concurrent retrain is caught by the next poll rather than pinning a
	// wrong checksum to the loaded weights.
	sum, err := filesChecksum(members)
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", spec.Name, err)
	}
	net, in, out, err := resolveDims(spec)
	if err != nil {
		return nil, err
	}
	hpacml.StoreModel(spec.Path, net)
	// Every ensemble member must load and agree on the primary's I/O
	// widths — a disagreeing member would corrupt the ensemble mean.
	for _, p := range spec.Ensemble {
		mnet, err := nn.Load(p)
		if err != nil {
			return nil, fmt.Errorf("serve: model %q ensemble member %s: %w", spec.Name, p, err)
		}
		if err := validateDims(mnet, in, out); err != nil {
			return nil, fmt.Errorf("serve: model %q ensemble member %s: %w", spec.Name, p, err)
		}
		hpacml.StoreModel(p, mnet)
	}
	m := &model{
		name:     spec.Name,
		path:     spec.Path,
		members:  members,
		in:       in,
		out:      out,
		queue:    make(chan rowRange, cfg.QueueCap),
		stats:    newModelStats(cfg.MaxBatch, cfg.Workers, met.forModel(spec.Name)),
		sum:      sum,
		loadedAt: time.Now(),
	}
	for i := 0; i < cfg.Workers; i++ {
		rep, err := newReplica(spec, members, i, in, out, cfg.MaxBatch)
		if err != nil {
			m.closeReplicas()
			return nil, err
		}
		m.replicas = append(m.replicas, rep)
	}
	return m, nil
}

// closeReplicas releases every replica engine built so far.
func (m *model) closeReplicas() {
	for _, rep := range m.replicas {
		rep.close()
	}
}

// admit reserves rows in the queue unless the rows already queued reach
// capacity: a request is admitted or rejected whole.
func (m *model) admit(rows, capacity int) bool {
	for {
		d := m.depth.Load()
		if d >= int64(capacity) {
			return false
		}
		if m.depth.CompareAndSwap(d, d+int64(rows)) {
			return true
		}
	}
}

// resolveDims loads the model file to infer (or cross-check) the flat
// I/O widths the replicas serve, returning the loaded
// network so callers can publish the exact validated object.
func resolveDims(spec ModelSpec) (net *nn.Network, in, out int, err error) {
	net, err = nn.Load(spec.Path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("serve: model %q: %w", spec.Name, err)
	}
	if spec.In <= 0 && spec.Out <= 0 {
		if in, out, err = net.VectorIO(); err != nil {
			return nil, 0, 0, fmt.Errorf("serve: model %q: %w (pass explicit dimensions)", spec.Name, err)
		}
		return net, in, out, nil
	}
	if spec.In <= 0 || spec.Out <= 0 {
		return nil, 0, 0, fmt.Errorf("serve: model %q: give both In and Out or neither", spec.Name)
	}
	if err := validateDims(net, spec.In, spec.Out); err != nil {
		return nil, 0, 0, fmt.Errorf("serve: model %q: %w", spec.Name, err)
	}
	return net, spec.In, spec.Out, nil
}

// validateDims checks that net maps [in]-feature samples to out total
// output features.
func validateDims(net *nn.Network, in, out int) error {
	shape, err := net.OutShape([]int{in})
	if err != nil {
		return fmt.Errorf("model rejects %d-feature input: %w", in, err)
	}
	got := 1
	for _, d := range shape {
		got *= d
	}
	if got != out {
		return fmt.Errorf("model maps %d features to %d outputs, registry says %d", in, got, out)
	}
	return nil
}

// info snapshots the registry view.
func (m *model) info() ModelInfo {
	m.sumMu.Lock()
	sum := m.sum
	loadedAt := m.loadedAt
	m.sumMu.Unlock()
	return ModelInfo{
		Name:       m.name,
		Path:       m.path,
		Ensemble:   len(m.members),
		InDim:      m.in,
		OutDim:     m.out,
		Checksum:   hex.EncodeToString(sum[:]),
		Generation: m.gen.Load(),
		Replicas:   len(m.replicas),
		LoadedAt:   loadedAt,
	}
}

// checkReload re-checksums every member file. When any byte changed,
// each changed file is loaded and validated (loadable, same I/O widths
// — a width change would break the clients' row widths and is
// refused), the validated networks are published to the shared model
// cache, and the model generation is bumped; each replica swaps onto
// the published weights at its next batch boundary via its engine's
// Refresh (which the ensemble engine forwards to every member), so each
// batch runs on one generation and every replica sees the same objects
// — never a torn or re-retrained file read of its own.
func (m *model) checkReload() error {
	sum, err := filesChecksum(m.members)
	if err != nil {
		m.stats.reloadFailed()
		return fmt.Errorf("serve: model %q reload: %w", m.name, err)
	}
	m.sumMu.Lock()
	same := sum == m.sum
	m.sumMu.Unlock()
	if same {
		return nil
	}
	nets := make([]*nn.Network, len(m.members))
	for i, p := range m.members {
		net, err := nn.Load(p)
		if err != nil {
			m.stats.reloadFailed()
			return fmt.Errorf("serve: model %q reload: %w", m.name, err)
		}
		if err := validateDims(net, m.in, m.out); err != nil {
			m.stats.reloadFailed()
			return fmt.Errorf("serve: model %q reload refused (%s): %w", m.name, p, err)
		}
		nets[i] = net
	}
	// All members validated — publish atomically from the registry's
	// point of view (replicas only look after the generation bump).
	for i, p := range m.members {
		hpacml.StoreModel(p, nets[i])
	}
	m.sumMu.Lock()
	m.sum = sum
	m.loadedAt = time.Now()
	m.sumMu.Unlock()
	m.gen.Add(1)
	m.stats.reloaded()
	return nil
}

// fileChecksum hashes a model file's contents.
func fileChecksum(path string) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	b, err := os.ReadFile(path)
	if err != nil {
		return sum, err
	}
	return sha256.Sum256(b), nil
}

// filesChecksum hashes a member set: the concatenation of each file's
// own hash, so member order matters and any member change changes the
// set checksum.
func filesChecksum(paths []string) ([sha256.Size]byte, error) {
	h := sha256.New()
	for _, p := range paths {
		s, err := fileChecksum(p)
		if err != nil {
			return [sha256.Size]byte{}, err
		}
		h.Write(s[:])
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}
