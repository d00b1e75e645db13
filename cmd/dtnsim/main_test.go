package main

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"errors"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dtnsim"
)

func TestBuildScheduleKinds(t *testing.T) {
	for _, kind := range []string{"trace", "rwp", "classic", "interval"} {
		s, err := buildSchedule(kind, "", 3, 400)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	if _, err := buildSchedule("bogus", "", 3, 400); err == nil {
		t.Error("unknown mobility accepted")
	}
}

func TestBuildScheduleFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.txt")
	gen, err := dtnsim.CambridgeTrace(5)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dtnsim.WriteTrace(f, gen); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := buildSchedule("ignored", path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Contacts) != len(gen.Contacts) {
		t.Errorf("file round trip: %d contacts, want %d", len(s.Contacts), len(gen.Contacts))
	}
	if _, err := buildSchedule("trace", filepath.Join(t.TempDir(), "missing"), 0, 0); err == nil {
		t.Error("missing file accepted")
	}
}

func TestBuildScenarioKinds(t *testing.T) {
	// Synthetic models regenerate per run; the fixed trace does not.
	perRun := map[string]bool{"trace": false, "rwp": true, "classic": true, "interval": true}
	for kind, want := range perRun {
		sc, err := buildScenario(kind, "", 400)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if sc.PerRunSchedule != want {
			t.Errorf("%s: PerRunSchedule = %v, want %v", kind, sc.PerRunSchedule, want)
		}
		s, err := materialize(sc, 3)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	if _, err := buildScenario("bogus", "", 400); err == nil {
		t.Error("unknown mobility accepted")
	}
}

func TestBuildScenarioFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.txt")
	gen, err := dtnsim.CambridgeTrace(5)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dtnsim.WriteTrace(f, gen); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := buildScenario("ignored", path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sc.PerRunSchedule {
		t.Error("a fixed trace file must be shared across runs")
	}
	s, err := materialize(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Contacts) != len(gen.Contacts) {
		t.Errorf("file round trip: %d contacts, want %d", len(s.Contacts), len(gen.Contacts))
	}
}

func TestBuildProtocolKinds(t *testing.T) {
	kinds := []string{"pure", "pq", "ttl", "dynttl", "ec", "ecttl", "immunity", "cumimmunity"}
	for _, k := range kinds {
		p, err := buildProtocol(k, 0.5, 0.5, false, 300)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if p.Name() == "" {
			t.Errorf("%s: empty name", k)
		}
	}
	p, err := buildProtocol("pq", 1, 1, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "P-Q epidemic (P=1,Q=1,anti-packets)" {
		t.Errorf("anti-packet variant name = %q", p.Name())
	}
	if _, err := buildProtocol("bogus", 0, 0, false, 0); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestLegacyFlagSpecTranslation(t *testing.T) {
	cases := map[string]string{
		legacyProtocolSpec("pure", 1, 1, false, 300):  "pure",
		legacyProtocolSpec("pq", 0.5, 0.25, false, 0): "pq:p=0.5,q=0.25",
		legacyProtocolSpec("pq", 1, 1, true, 0):       "pq:p=1,q=1,anti",
		legacyProtocolSpec("ttl", 0, 0, false, 150):   "ttl:150",
		legacyMobilitySpec("trace", "", 0):            "cambridge",
		legacyMobilitySpec("rwp", "", 0):              "subscriber",
		legacyMobilitySpec("classic", "", 0):          "rwp",
		legacyMobilitySpec("interval", "", 2000):      "interval:max=2000",
		legacyMobilitySpec("trace", "f.txt", 0):       "trace:f.txt",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("legacy translation = %q, want %q", got, want)
		}
	}
}

// TestBuildProtocolRejectsOutOfRange: bad P-Q probabilities and TTLs
// must surface as errors at the CLI boundary, not as panics.
func TestBuildProtocolRejectsOutOfRange(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("buildProtocol panicked: %v", r)
		}
	}()
	if _, err := buildProtocol("pq", 2, 0.5, false, 0); err == nil {
		t.Error("p=2 accepted")
	}
	if _, err := buildProtocol("pq", 0.5, -1, false, 0); err == nil {
		t.Error("q=-1 accepted")
	}
	if _, err := buildProtocol("ttl", 0, 0, false, -10); err == nil {
		t.Error("negative TTL accepted")
	}
	if _, err := buildProtocol("ttl", 0, 0, false, 0); err == nil {
		t.Error("zero TTL accepted")
	}
}

// TestDistConflict pins the hard-error contract: any distributed
// executor flag set alongside -sweep or -remote is rejected with the
// errFlagConflict sentinel instead of being warned away and ignored.
func TestDistConflict(t *testing.T) {
	for _, mode := range []string{"-sweep", "-remote"} {
		for _, name := range []string{"dist-workers", "dist-hosts", "dist-ca", "worker-bin"} {
			err := distConflict(mode, map[string]bool{name: true})
			if err == nil {
				t.Errorf("%s with -%s accepted", mode, name)
				continue
			}
			if !errors.Is(err, errFlagConflict) {
				t.Errorf("%s with -%s: error %v does not wrap errFlagConflict", mode, name, err)
			}
			if !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), mode) {
				t.Errorf("%s with -%s: error %q names neither flag nor mode", mode, name, err)
			}
		}
		if err := distConflict(mode, map[string]bool{"seed": true, "proto": true}); err != nil {
			t.Errorf("%s without dist flags rejected: %v", mode, err)
		}
	}
}

func TestSplitHosts(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a:1", []string{"a:1"}},
		{"a:1,b:2", []string{"a:1", "b:2"}},
		{" a:1 , ,b:2, ", []string{"a:1", "b:2"}},
	}
	for _, c := range cases {
		got := splitHosts(c.in)
		if len(got) != len(c.want) {
			t.Errorf("splitHosts(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("splitHosts(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

// TestDistTLS pins the -dist-ca loader: empty path means plain TCP,
// a missing or certificate-free file is an error, and a real PEM
// bundle yields a config with a populated root pool.
func TestDistTLS(t *testing.T) {
	cfg, err := distTLS("")
	if err != nil || cfg != nil {
		t.Errorf("empty path: (%v, %v), want (nil, nil)", cfg, err)
	}
	if _, err := distTLS(filepath.Join(t.TempDir(), "missing.pem")); err == nil {
		t.Error("missing CA file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.pem")
	if err := os.WriteFile(bad, []byte("not a certificate"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := distTLS(bad); err == nil {
		t.Error("certificate-free CA file accepted")
	}
	good := filepath.Join(t.TempDir(), "ca.pem")
	if err := os.WriteFile(good, selfSignedCAPEM(t), 0o600); err != nil {
		t.Fatal(err)
	}
	cfg, err = distTLS(good)
	if err != nil {
		t.Fatalf("valid CA bundle rejected: %v", err)
	}
	if cfg == nil || cfg.RootCAs == nil {
		t.Fatal("valid CA bundle produced no root pool")
	}
}

// selfSignedCAPEM generates a throwaway CA certificate in PEM form.
func selfSignedCAPEM(t *testing.T) []byte {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "dtnsim-test-ca"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageCertSign,
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
}

// The build* helpers below exercise the legacy-flag translation path
// exactly as main does: translate to a registry spec, then parse.
// They live in the test file because main routes through
// Scenario.Compile directly.

func buildScenario(kind, traceFile string, maxInterval float64) (dtnsim.ExperimentScenario, error) {
	sc, err := dtnsim.ParseMobilitySpec(legacyMobilitySpec(kind, traceFile, maxInterval))
	if err != nil {
		return dtnsim.ExperimentScenario{}, err
	}
	if traceFile == "" {
		sc.Name = kind
	}
	return sc, nil
}

func buildSchedule(kind, traceFile string, seed uint64, maxInterval float64) (*dtnsim.Schedule, error) {
	sc, err := buildScenario(kind, traceFile, maxInterval)
	if err != nil {
		return nil, err
	}
	return materialize(sc, seed)
}

// materialize drains the scenario's mobility stream for seed into a
// Schedule.
func materialize(sc dtnsim.ExperimentScenario, seed uint64) (*dtnsim.Schedule, error) {
	src, err := sc.Stream(seed)
	if err != nil {
		return nil, err
	}
	return dtnsim.MaterializeSource(src)
}

func buildProtocol(kind string, p, q float64, anti bool, ttl float64) (dtnsim.Protocol, error) {
	f, err := dtnsim.ParseProtocolSpec(legacyProtocolSpec(kind, p, q, anti, ttl))
	if err != nil {
		return nil, err
	}
	return f.New(), nil
}
