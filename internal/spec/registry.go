package spec

import (
	"errors"
	"fmt"
	"strings"
)

// Info documents one registered kind for listings (-list, /v1/specs).
type Info struct {
	// Name is the registry key ("pq", "cambridge", …).
	Name string
	// Usage is the kind's Table.Usage line.
	Usage string
}

// Registry maps spec kind names to their parameter tables and to the
// func that builds a T from parsed values. New kinds register under a
// string key and become usable everywhere specs are accepted — scenario
// files, sweeps, the CLI — without touching callers.
type Registry[T any] struct {
	what     string // "protocol", "mobility": names the registry in messages
	sentinel error
	names    []string
	kinds    map[string]kind[T]
}

type kind[T any] struct {
	doc   string
	table Table
	build func(canonical string, v Values) (T, error)
}

// NewRegistry returns an empty registry whose Parse errors wrap
// sentinel.
func NewRegistry[T any](what string, sentinel error) *Registry[T] {
	return &Registry[T]{what: what, sentinel: sentinel, kinds: map[string]kind[T]{}}
}

// Register adds a kind: its one-line doc, its parameter table, and the
// func turning a parsed argument list and its canonical spelling into a
// T. The func may refuse values that each lie in their row's range but
// do not go together; Parse wraps its error in the sentinel unless it
// already does. It panics on an empty or duplicate name or an
// ill-formed table: registration happens at package init time, where
// those are programming errors.
func (r *Registry[T]) Register(name, doc string, t Table, build func(canonical string, v Values) (T, error)) {
	if name == "" || build == nil {
		panic(r.what + ": Register requires a name and a build func")
	}
	if _, dup := r.kinds[name]; dup {
		panic(fmt.Sprintf("%s: %q registered twice", r.what, name))
	}
	t.validate(name)
	r.names = append(r.names, name)
	r.kinds[name] = kind[T]{doc: doc, table: t, build: build}
}

// Names returns the registered kind names in registration order.
func (r *Registry[T]) Names() []string {
	return append([]string(nil), r.names...)
}

// Specs returns name and generated usage for every registered kind, in
// registration order.
func (r *Registry[T]) Specs() []Info {
	out := make([]Info, 0, len(r.names))
	for _, n := range r.names {
		k := r.kinds[n]
		out = append(out, Info{Name: n, Usage: k.table.Usage(n, k.doc)})
	}
	return out
}

// Parse resolves a spec string to a T built from its canonical
// spelling. All failures — unknown name, malformed arguments,
// out-of-range parameters, values the kind refuses together — are
// errors wrapping the registry's sentinel; Parse never panics.
func (r *Registry[T]) Parse(s string) (T, error) {
	var zero T
	name, args := Split(s)
	if name == "" {
		return zero, fmt.Errorf("%w: empty spec", r.sentinel)
	}
	k, ok := r.kinds[name]
	if !ok {
		return zero, fmt.Errorf("%w: unknown %s %q (have %s)",
			r.sentinel, r.what, name, strings.Join(r.names, ", "))
	}
	v, err := k.table.Parse(args)
	if err != nil {
		return zero, fmt.Errorf("%w: %s: %v", r.sentinel, name, err)
	}
	x, err := k.build(k.table.Canonical(name, v), v)
	if err != nil && !errors.Is(err, r.sentinel) {
		err = fmt.Errorf("%w: %s: %v", r.sentinel, name, err)
	}
	return x, err
}
