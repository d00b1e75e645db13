package dtnsim

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"dtnsim/internal/buffer"
	"dtnsim/internal/core"
	"dtnsim/internal/experiment"
	"dtnsim/internal/metrics"
	"dtnsim/internal/mobility"
	"dtnsim/internal/node"
	"dtnsim/internal/protocol"
	"dtnsim/internal/report"
	"dtnsim/internal/spec"
)

// This file is the declarative face of the simulator: scenarios and
// sweeps as data. A Scenario names its mobility model and protocol by
// registry spec strings, round-trips through JSON, and compiles to the
// same core.Config a Go caller would build by hand — so a run defined
// in a file is bit-identical to the equivalent programmatic run.

// MobilitySpec selects a mobility source by registry spec:
// "cambridge:seed=42", "subscriber", "rwp:nodes=40", "interval:max=2000",
// "trace:PATH". See MobilitySpecs for the full grammar.
type MobilitySpec string

// ProtocolSpec selects a routing protocol by registry spec:
// "pure", "pq:p=0.8,q=0.5", "ttl:300", "cumimmunity", …. See
// ProtocolSpecs for the full grammar.
type ProtocolSpec string

// ErrScenario wraps scenario-level validation failures (spec errors
// keep their own sentinels: protocol.ErrSpec / mobility.ErrSpec wrapped
// underneath).
var ErrScenario = errors.New("dtnsim: invalid scenario")

// Scenario is one simulation run as data. Zero-valued knobs take the
// paper's §IV defaults exactly as in Config; Seed drives both mobility
// generation (unless the mobility spec pins seed=N) and the protocol's
// random draws.
type Scenario struct {
	// Name is a free-form label carried into reports.
	Name string `json:"name,omitempty"`
	// Mobility and Protocol are registry specs. Required for a
	// standalone scenario; a SweepSpec template omits Protocol (the
	// sweep's Protocols list supplies it).
	Mobility MobilitySpec `json:"mobility"`
	Protocol ProtocolSpec `json:"protocol,omitempty"`
	// Flows is the workload. Required for a standalone scenario;
	// sweeps generate their own single-flow workloads per run.
	Flows []Flow `json:"flows,omitempty"`
	// Engine knobs; zero means the paper's default.
	BufferCap      int     `json:"buffer_cap,omitempty"`
	TxTime         float64 `json:"tx_time,omitempty"`
	RecordsPerSlot int     `json:"records_per_slot,omitempty"`
	SampleEvery    float64 `json:"sample_every,omitempty"`
	Horizon        Time    `json:"horizon,omitempty"`
	Seed           uint64  `json:"seed,omitempty"`
	RunToHorizon   bool    `json:"run_to_horizon,omitempty"`
	// Resource-model knobs (DESIGN.md §9); zero disables each one, so
	// legacy scenario files run bit-identically.
	//
	// Bandwidth ("bw") is the contact link capacity in bytes/sec for
	// contacts without their own; BundleSize ("size") is the default
	// payload size for flows that set none; BufferBytes ("bufbytes") is
	// the per-node byte capacity; DropPolicy ("drop") names the
	// byte-pressure policy (droptail, dropfront, droprandom);
	// ControlBytes ("ctlbytes") charges each control record against a
	// bandwidth-limited contact's byte budget.
	Bandwidth    float64 `json:"bw,omitempty"`
	BundleSize   int64   `json:"size,omitempty"`
	BufferBytes  int64   `json:"bufbytes,omitempty"`
	DropPolicy   string  `json:"drop,omitempty"`
	ControlBytes float64 `json:"ctlbytes,omitempty"`
	// Shards is accepted from older files and ignored: every run
	// executes on the one sequential kernel. It never enters the
	// canonical key, and Normalize clears it.
	Shards int `json:"shards,omitempty"`
}

// decodeStrict decodes one JSON value into v, rejecting unknown fields
// and trailing content after the value.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrScenario, err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return fmt.Errorf("%w: trailing content after the JSON value", ErrScenario)
	}
	return nil
}

// ParseScenario decodes a JSON scenario strictly: unknown fields and
// trailing content are rejected, and both specs are resolved against
// the registries so a typo fails at load time, not mid-sweep.
func ParseScenario(data []byte) (Scenario, error) {
	var s Scenario
	if err := decodeStrict(data, &s); err != nil {
		return Scenario{}, err
	}
	if err := s.Check(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// JSON renders the scenario as indented JSON, the format ParseScenario
// reads.
func (s Scenario) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// resolve parses the scenario's two specs against the registries, each
// exactly once per call. A scenario used only for its mobility
// (StreamMobility) carries no Protocol and resolves to the zero Factory.
func (s Scenario) resolve() (src mobility.Source, fac protocol.Factory, err error) {
	if src, err = mobility.Parse(string(s.Mobility)); err == nil && s.Protocol != "" {
		fac, err = protocol.Parse(string(s.Protocol))
	}
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrScenario, err)
	}
	return src, fac, err
}

// checked is Check, handing back what it parsed so that Compile does
// not parse again.
func (s Scenario) checked() (mobility.Source, protocol.Factory, error) {
	src, fac, err := s.resolve()
	switch {
	case s.Mobility == "":
		err = fmt.Errorf("%w: missing mobility spec", ErrScenario)
	case s.Protocol == "":
		err = fmt.Errorf("%w: missing protocol spec", ErrScenario)
	case err != nil:
	case len(s.Flows) == 0:
		err = fmt.Errorf("%w: no flows", ErrScenario)
	default:
		if perr := buffer.CheckDropPolicy(s.DropPolicy); perr != nil {
			err = fmt.Errorf("%w: %v", ErrScenario, perr)
		}
	}
	return src, fac, err
}

// Check validates the scenario's specs and workload without generating
// mobility. It is the cheap half of Compile.
func (s Scenario) Check() error {
	_, _, err := s.checked()
	return err
}

// Normalize returns the scenario with both specs replaced by their
// canonical forms and every engine default the scenario omits spelled
// out, so two scenarios meaning the same run compare equal as data. The
// inert "shards" key is cleared, so two scenarios differing only in it
// are the same run.
func (s Scenario) Normalize() (Scenario, error) {
	src, fac, err := s.resolve()
	if err != nil {
		return Scenario{}, err
	}
	return s.respelled(src, fac), nil
}

// respelled is Normalize given the already-parsed specs. The defaults
// it spells are the engine's own: a zero knob and its default run
// identically, so they must share a key.
func (s Scenario) respelled(src mobility.Source, fac protocol.Factory) Scenario {
	s.Mobility, s.Protocol = MobilitySpec(src.Spec), ProtocolSpec(fac.Spec)
	s.Shards = 0
	s.BufferCap = cmp.Or(s.BufferCap, core.DefaultBufferCap)
	s.TxTime = cmp.Or(s.TxTime, core.DefaultTxTime)
	s.RecordsPerSlot = cmp.Or(s.RecordsPerSlot, core.DefaultRecordsPerSlot)
	s.SampleEvery = cmp.Or(s.SampleEvery, core.DefaultSampleEvery)
	s.DropPolicy = cmp.Or(s.DropPolicy, buffer.DefaultDropPolicy)
	return s
}

// Compile resolves the scenario to the engine configuration a Go caller
// would have built by hand: the registries supply the contact plan and
// the protocol instance, everything else copies over verbatim. Mobility
// is resolved to a streaming Source — never materialized — so compiled
// scenarios run in O(nodes) contact-plan memory; results are
// bit-identical to a Config built around the materialized Schedule.
// The Source is consumed by one Run, so compile once per run (compiling
// twice also yields independent protocol instances).
func (s Scenario) Compile() (Config, error) {
	src, fac, err := s.checked()
	if err != nil {
		return Config{}, err
	}
	stream, err := src.Stream(s.Seed)
	if err != nil {
		return Config{}, fmt.Errorf("dtnsim: streaming %s mobility: %w", src.Kind, err)
	}
	flows := append([]Flow(nil), s.Flows...)
	if s.BundleSize != 0 {
		// The scenario-level default size fills flows that set none.
		for i := range flows {
			if flows[i].Size == 0 {
				flows[i].Size = s.BundleSize
			}
		}
	}
	return Config{
		Source:         stream,
		Protocol:       fac.New(),
		Flows:          flows,
		BufferCap:      s.BufferCap,
		TxTime:         s.TxTime,
		RecordsPerSlot: s.RecordsPerSlot,
		SampleEvery:    s.SampleEvery,
		Horizon:        s.Horizon,
		Seed:           s.Seed,
		RunToHorizon:   s.RunToHorizon,
		Bandwidth:      s.Bandwidth,
		BufferBytes:    s.BufferBytes,
		DropPolicy:     s.DropPolicy,
		ControlBytes:   s.ControlBytes,
	}, nil
}

// StreamMobility resolves the scenario's mobility to a fresh streaming
// source — e.g. to summarize it with AnalyzeContactSource without
// holding the schedule. Each call returns an independent single-use
// stream; Compile builds its own.
func (s Scenario) StreamMobility() (ContactSource, error) {
	src, _, err := s.resolve()
	if err != nil {
		return nil, err
	}
	stream, err := src.Stream(s.Seed)
	if err != nil {
		return nil, fmt.Errorf("dtnsim: streaming %s mobility: %w", src.Kind, err)
	}
	return stream, nil
}

// Materialize resolves the scenario's mobility to a full Schedule —
// the form tools needing random access (WriteTrace) want — by draining
// StreamMobility. Runs don't: Compile streams.
func (s Scenario) Materialize() (*Schedule, error) {
	stream, err := s.StreamMobility()
	if err != nil {
		return nil, err
	}
	return MaterializeSource(stream)
}

// RunScenario compiles and executes a scenario. Observers, if any,
// stream the run's events (see Observer).
func RunScenario(s Scenario, obs ...Observer) (*Result, error) {
	cfg, err := s.Compile()
	if err != nil {
		return nil, err
	}
	cfg.Observers = append(cfg.Observers, obs...)
	return core.Run(cfg)
}

// --- Sweeps as data ---------------------------------------------------------

// SweepSpec is a load-sweep experiment as data: a scenario template
// swept over protocol specs and loads. The template's Mobility, engine
// knobs (TxTime, BufferCap) and Seed apply to every run; its Protocol
// and Flows are ignored — the sweep re-randomizes source/destination
// pairs per run and sweeps the load axis, per the paper's §IV
// methodology. The remaining single-run knobs (SampleEvery,
// RecordsPerSlot, Horizon) are not supported by the sweep harness and
// are rejected rather than silently dropped; sweeps always run to the
// horizon, so RunToHorizon true is accepted as redundant.
type SweepSpec struct {
	Name      string         `json:"name,omitempty"`
	Scenario  Scenario       `json:"scenario"`
	Protocols []ProtocolSpec `json:"protocols"`
	// Labels optionally overrides the series labels, one per protocol
	// spec (the paper's figures use legend names like "Epidemic with
	// TTL" rather than the canonical spec label).
	Labels []string `json:"labels,omitempty"`
	// Loads defaults to the paper's 5,10,…,50.
	Loads []int `json:"loads,omitempty"`
	// Runs per point; defaults to the paper's 10.
	Runs int `json:"runs,omitempty"`
	// Metrics to collect; empty means all five.
	Metrics []Metric `json:"metrics,omitempty"`
	// Workers bounds concurrent runs (0 = all CPUs, 1 = sequential,
	// negative refused; never more goroutines than runs); results are
	// bit-identical for every value, so dtnsimd, which runs the
	// normalized spec, ignores it.
	Workers int `json:"workers,omitempty"`
}

// ParseSweepSpec decodes a JSON sweep strictly and validates its specs.
func ParseSweepSpec(data []byte) (SweepSpec, error) {
	var s SweepSpec
	if err := decodeStrict(data, &s); err != nil {
		return SweepSpec{}, err
	}
	if _, err := s.Compile(); err != nil {
		return SweepSpec{}, err
	}
	return s, nil
}

// JSON renders the sweep as indented JSON.
func (s SweepSpec) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Compile resolves the sweep to a runnable Sweep via the registries.
func (s SweepSpec) Compile() (Sweep, error) {
	if s.Scenario.Mobility == "" {
		return Sweep{}, fmt.Errorf("%w: sweep template missing mobility spec", ErrScenario)
	}
	if s.Scenario.SampleEvery != 0 || s.Scenario.RecordsPerSlot != 0 || s.Scenario.Horizon != 0 {
		return Sweep{}, fmt.Errorf("%w: sweep templates do not support sample_every, records_per_slot or horizon (the harness uses the paper's §IV settings)", ErrScenario)
	}
	sc, err := experiment.ScenarioFromSpec(string(s.Scenario.Mobility))
	if err != nil {
		return Sweep{}, fmt.Errorf("%w: %v", ErrScenario, err)
	}
	if s.Scenario.Name != "" {
		sc.Name = s.Scenario.Name
	}
	// Template knobs override the spec preset (e.g. interval's fast link).
	if s.Scenario.TxTime != 0 {
		sc.TxTime = s.Scenario.TxTime
	}
	if s.Scenario.BufferCap != 0 {
		sc.BufferCap = s.Scenario.BufferCap
	}
	// Resource-model template knobs apply to every run of the sweep;
	// the sweep's generated single-flow workload takes the template's
	// default bundle size.
	if err := buffer.CheckDropPolicy(s.Scenario.DropPolicy); err != nil {
		return Sweep{}, fmt.Errorf("%w: %v", ErrScenario, err)
	}
	sc.Bandwidth = s.Scenario.Bandwidth
	sc.BundleSize = s.Scenario.BundleSize
	sc.BufferBytes = s.Scenario.BufferBytes
	sc.DropPolicy = s.Scenario.DropPolicy
	sc.ControlBytes = s.Scenario.ControlBytes
	if len(s.Protocols) == 0 {
		return Sweep{}, fmt.Errorf("%w: sweep has no protocol specs", ErrScenario)
	}
	if len(s.Labels) != 0 && len(s.Labels) != len(s.Protocols) {
		return Sweep{}, fmt.Errorf("%w: %d labels for %d protocols", ErrScenario, len(s.Labels), len(s.Protocols))
	}
	for _, load := range s.Loads {
		if load <= 0 {
			return Sweep{}, fmt.Errorf("%w: load %d is not a positive bundle count", ErrScenario, load)
		}
	}
	if s.Runs < 0 {
		return Sweep{}, fmt.Errorf("%w: negative runs %d (0 means the paper's 10)", ErrScenario, s.Runs)
	}
	if s.Workers < 0 {
		return Sweep{}, fmt.Errorf("%w: negative workers %d (0 means every CPU)", ErrScenario, s.Workers)
	}
	factories := make([]ProtocolFactory, 0, len(s.Protocols))
	for i, ps := range s.Protocols {
		f, err := experiment.FactoryFromSpec(string(ps))
		if err != nil {
			return Sweep{}, fmt.Errorf("%w: %v", ErrScenario, err)
		}
		if len(s.Labels) != 0 && s.Labels[i] != "" {
			f.Label = s.Labels[i]
		}
		factories = append(factories, f)
	}
	return Sweep{
		Scenario:  sc,
		Protocols: factories,
		Loads:     append([]int(nil), s.Loads...),
		Runs:      s.Runs,
		BaseSeed:  s.Scenario.Seed,
		Metrics:   append([]Metric(nil), s.Metrics...),
		Workers:   s.Workers,
	}, nil
}

// RunSweepSpec compiles and executes a data-defined sweep.
func RunSweepSpec(s SweepSpec) (*SweepResult, error) {
	sw, err := s.Compile()
	if err != nil {
		return nil, err
	}
	return experiment.Run(sw)
}

// SweepSpecOf reconstructs the serializable form of a sweep whose
// scenario and factories were built from registry specs (everything
// Figures and Ablations return). Hand-built sweeps without spec strings
// are not serializable and return an error, and so are bandwidth and
// population sweeps and drop-policy series, which SweepSpec cannot
// spell yet.
func SweepSpecOf(name string, sw Sweep) (SweepSpec, error) {
	if sw.Scenario.Spec == "" {
		return SweepSpec{}, fmt.Errorf("%w: scenario %q was not built from a mobility spec",
			ErrScenario, sw.Scenario.Name)
	}
	if sw.Axis.Kind != AxisLoad || len(sw.DropPolicies) != 0 {
		return SweepSpec{}, fmt.Errorf("%w: a SweepSpec spells only load sweeps without drop-policy series", ErrScenario)
	}
	spec := SweepSpec{
		Name: name,
		Scenario: Scenario{
			Name:     sw.Scenario.Name,
			Mobility: MobilitySpec(sw.Scenario.Spec),
			// Compile's interval preset re-applies TxTime; recording the
			// effective values keeps the file self-describing.
			TxTime:       sw.Scenario.TxTime,
			BufferCap:    sw.Scenario.BufferCap,
			Seed:         sw.BaseSeed,
			Bandwidth:    sw.Scenario.Bandwidth,
			BundleSize:   sw.Scenario.BundleSize,
			BufferBytes:  sw.Scenario.BufferBytes,
			DropPolicy:   sw.Scenario.DropPolicy,
			ControlBytes: sw.Scenario.ControlBytes,
		},
		Loads:   append([]int(nil), sw.Loads...),
		Runs:    sw.Runs,
		Metrics: append([]Metric(nil), sw.Metrics...),
		Workers: sw.Workers,
	}
	relabeled := false
	for _, f := range sw.Protocols {
		if f.Spec == "" {
			return SweepSpec{}, fmt.Errorf("%w: factory %q was not built from a protocol spec",
				ErrScenario, f.Label)
		}
		spec.Protocols = append(spec.Protocols, ProtocolSpec(f.Spec))
		spec.Labels = append(spec.Labels, f.Label)
		if defaultLabel(f.Spec) != f.Label {
			relabeled = true
		}
	}
	if !relabeled {
		spec.Labels = nil // canonical labels: keep the file minimal
	}
	return spec, nil
}

// defaultLabel returns the registry's label for a spec (its display
// name), used to elide redundant label lists when serializing sweeps.
func defaultLabel(spec string) string {
	f, err := protocol.Parse(spec)
	if err != nil {
		return ""
	}
	return f.Label
}

// --- Registry surface -------------------------------------------------------

// Observer receives engine events while a run progresses; attach
// implementations via Config.Observers or RunScenario. The built-in
// metrics collector is itself an observer, as is the streaming CSV
// writer returned by NewStreamObserver.
type Observer = core.Observer

// FuncObserver adapts optional callbacks into an Observer.
type FuncObserver = core.FuncObserver

// MetricSample is one periodic engine observation delivered to
// Observer.OnSample.
type MetricSample = metrics.Sample

// DropReason classifies an Observer.OnDrop event.
type DropReason = node.DropReason

// The four ways a node sheds a bundle copy.
const (
	DropRefused = node.DropRefused
	DropEvicted = node.DropEvicted
	DropExpired = node.DropExpired
	DropPurged  = node.DropPurged
)

// SpecInfo documents one registered spec name for listings: the
// registry key and its generated one-line usage.
type SpecInfo = spec.Info

// ParseProtocolSpec resolves a protocol spec string to a sweep-ready
// factory. Errors wrap protocol.ErrSpec; it never panics, making it
// the safe boundary for user-supplied specs (the CLI routes -proto and
// the legacy -protocol flags through here).
func ParseProtocolSpec(spec string) (ProtocolFactory, error) {
	return experiment.FactoryFromSpec(spec)
}

// ParseMobilitySpec resolves a mobility spec string to a sweep-ready
// scenario. Errors wrap mobility.ErrSpec; it never panics.
func ParseMobilitySpec(spec string) (ExperimentScenario, error) {
	return experiment.ScenarioFromSpec(spec)
}

// ProtocolSpecs lists every registered protocol spec with its usage.
func ProtocolSpecs() []SpecInfo { return protocol.Default.Specs() }

// MobilitySpecs lists every registered mobility spec with its usage.
func MobilitySpecs() []SpecInfo { return mobility.Default.Specs() }

// BuiltinProtocolSpecs returns the canonical spec of every paper
// protocol in the paper's order — the spec-string form of Protocols().
func BuiltinProtocolSpecs() []ProtocolSpec {
	specs := protocol.BuiltinSpecs()
	out := make([]ProtocolSpec, len(specs))
	for i, s := range specs {
		out[i] = ProtocolSpec(s)
	}
	return out
}

// NewStreamObserver returns an Observer that writes the run as a CSV
// stream; see report.Stream for the layout. With events false only the
// periodic metric samples are written.
func NewStreamObserver(w io.Writer, events bool) *report.Stream {
	return report.NewStream(w, events)
}
