package experiment

import (
	"dtnsim/internal/mobility"
	"dtnsim/internal/protocol"
)

// ScenarioFromSpec builds a sweep scenario from a mobility spec string
// ("cambridge:seed=42", "subscriber", "interval:max=2000", …),
// resolved against mobility.Default. The paper pairs the
// controlled-interval scenario with a faster link (25 s/bundle, see
// IntervalScenario); that preset is applied here so a spec-built sweep
// reproduces the figure-built one exactly.
//
// The scenario's Stream shares one recorded plan per seed (replay.go):
// the protocol series of a sweep share their seeds, so each distinct
// plan is generated once per scenario while it fits the budget, not
// once per run, and results are unchanged bit for bit.
func ScenarioFromSpec(specStr string) (Scenario, error) {
	sc, err := streamedScenario(specStr)
	if err != nil {
		return Scenario{}, err
	}
	sc.Stream = newReplay(sc.Stream, replayBudget).Stream
	return sc, nil
}

// streamedScenario is ScenarioFromSpec over the registry's own stream,
// which generates a plan per request and retains nothing: for a caller
// that requests each plan once.
func streamedScenario(specStr string) (Scenario, error) {
	src, err := mobility.Parse(specStr)
	if err != nil {
		return Scenario{}, err
	}
	sc := Scenario{
		Name:           src.Kind,
		Spec:           src.Spec,
		Stream:         src.Stream,
		PerRunSchedule: src.PerRun,
	}
	if src.Kind == "interval" {
		sc.TxTime = 25
	}
	return sc, nil
}

// FactoryFromSpec builds a protocol factory from a protocol spec string
// ("pq:p=0.8,q=0.5", "ttl:300", …), resolved against protocol.Default.
// The label defaults to the protocol's display name.
func FactoryFromSpec(specStr string) (ProtocolFactory, error) {
	f, err := protocol.Parse(specStr)
	if err != nil {
		return ProtocolFactory{}, err
	}
	return ProtocolFactory{Label: f.Label, Spec: f.Spec, New: f.New}, nil
}

// mustScenario resolves a built-in spec; the specs are compile-time
// constants, so failure is a programming error.
func mustScenario(specStr string) Scenario {
	sc, err := ScenarioFromSpec(specStr)
	if err != nil {
		panic(err)
	}
	return sc
}

// mustFactory resolves a built-in spec and applies the paper's legend
// label (empty keeps the registry's default).
func mustFactory(specStr, label string) ProtocolFactory {
	f, err := FactoryFromSpec(specStr)
	if err != nil {
		panic(err)
	}
	if label != "" {
		f.Label = label
	}
	return f
}
