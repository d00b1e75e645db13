// Package spec implements the argument grammar shared by the protocol
// and mobility registries. A spec is "name" or "name:args"; args is a
// comma-separated list of key=value pairs and bare flags
// ("pq:p=0.8,q=0.5,anti") or, for a positional kind, one bare value
// ("ttl:300", "trace:PATH"). Each kind declares its parameters as a
// Table; parsing, range checks, the canonical spelling and the usage
// line all derive from that declaration. Parsing never panics:
// malformed input is an error wrapping the Registry's sentinel.
package spec

import (
	"fmt"
	"sort"
	"strings"
)

// Split separates a spec string into its registry name and argument
// part. The argument part is empty when no colon is present; only the
// first colon splits, so values (e.g. trace file paths) may contain
// colons.
func Split(s string) (name, args string) {
	name, args, _ = strings.Cut(strings.TrimSpace(s), ":")
	return strings.TrimSpace(name), strings.TrimSpace(args)
}

// Params is the tokenizer under Table.Parse: the key=value arguments of
// one spec, still as text. Take consumes a key, so Unknown can reject
// whatever no parameter claimed.
type Params struct {
	vals map[string]string
}

// Parse tokenizes a comma-separated "k=v,k2=v2,flag" argument list. A
// bare flag is stored with an empty value. An empty args string yields
// an empty parameter set.
func Parse(args string) (*Params, error) {
	p := &Params{vals: map[string]string{}}
	if strings.TrimSpace(args) == "" {
		return p, nil
	}
	for _, field := range strings.Split(args, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			return nil, fmt.Errorf("empty argument in %q", args)
		}
		key, val, _ := strings.Cut(field, "=")
		key = strings.TrimSpace(key)
		if key == "" {
			return nil, fmt.Errorf("argument %q has no key", field)
		}
		if _, dup := p.vals[key]; dup {
			return nil, fmt.Errorf("duplicate argument %q", key)
		}
		p.vals[key] = strings.TrimSpace(val)
	}
	return p, nil
}

// Take consumes key, returning its text and whether it was supplied
// (as a pair or a bare flag).
func (p *Params) Take(key string) (val string, ok bool) {
	val, ok = p.vals[key]
	delete(p.vals, key)
	return val, ok
}

// Unknown returns an error naming every supplied key Take did not
// consume, or nil when all arguments were recognized.
func (p *Params) Unknown() error {
	if len(p.vals) == 0 {
		return nil
	}
	extra := make([]string, 0, len(p.vals))
	for k := range p.vals {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	return fmt.Errorf("unknown argument(s) %s", strings.Join(extra, ", "))
}
