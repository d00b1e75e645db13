package spec

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type is the value type of one declared parameter.
type Type uint8

const (
	// Float is a finite float64, canonical in %g form. -0 reads as 0.
	Float Type = iota
	// Int is an int, canonical in decimal.
	Int
	// Uint is a uint64 with no default: absent differs from 0 (an
	// unpinned seed is not seed 0), so it is canonical whenever supplied.
	Uint
	// Flag is a bare key or key=true|1|yes|on / key=false|0|no|off,
	// canonical as the bare key when true.
	Flag
	// Raw is the whole argument string verbatim and is required
	// ("trace:PATH"); it must be Positional.
	Raw
)

// Param declares one parameter of a spec kind. The zero values give an
// optional non-negative number defaulting to 0 and omitted from the
// canonical spelling at 0.
type Param struct {
	Name string
	Type Type
	// Default is the value of an absent Float or Int.
	Default float64
	// Min and Max bound a Float or Int: Min <= v, or Min < v when Open;
	// v <= Max when Max > Min, else unbounded above. The Default is
	// admissible wherever it lies: spelled out, it means what absence
	// does ("nodes" is 0, the model's own population, or 2 and up).
	Min, Max float64
	Open     bool
	// Always keeps a Float or Int in the canonical spelling even at its
	// default ("pq:p=1,q=1").
	Always bool
	// Positional makes the kind's whole argument string this
	// parameter's value ("ttl:300"). It must be the table's only row.
	Positional bool
	// Meta is the value placeholder Usage prints ("SECONDS", "N").
	Meta string
}

// Table declares a spec kind's parameters in canonical order.
type Table []Param

// Values holds one parsed argument list, positionally parallel to its
// Table. Accessors take the declared name and panic on a name or type
// the Table does not declare — a programming error in a build func.
type Values struct {
	table Table
	vals  []value
}

type value struct {
	f   float64
	i   int
	u   uint64
	s   string
	on  bool // Flag
	set bool // supplied, as opposed to defaulted
}

func (v Values) at(name string, t Type) value {
	for i, p := range v.table {
		if p.Name == name && p.Type == t {
			return v.vals[i]
		}
	}
	panic(fmt.Sprintf("spec: table declares no parameter %q of that type", name))
}

// Float returns the named Float parameter.
func (v Values) Float(name string) float64 { return v.at(name, Float).f }

// Int returns the named Int parameter.
func (v Values) Int(name string) int { return v.at(name, Int).i }

// Uint returns the named Uint parameter and whether it was supplied.
func (v Values) Uint(name string) (n uint64, set bool) {
	x := v.at(name, Uint)
	return x.u, x.set
}

// Flag returns the named Flag parameter.
func (v Values) Flag(name string) bool { return v.at(name, Flag).on }

// Raw returns the named Raw parameter.
func (v Values) Raw(name string) string { return v.at(name, Raw).s }

// Parse reads an argument string against the table: every supplied key
// must be declared, at most once, with a value of its type and range.
func (t Table) Parse(args string) (Values, error) {
	v := Values{table: t, vals: make([]value, len(t))}
	if len(t) == 1 && t[0].Positional {
		return v, t[0].parse(args, args != "", &v.vals[0])
	}
	ps := &Params{} // nothing supplied: every Take misses
	if args != "" {
		if len(t) == 0 {
			return v, fmt.Errorf("takes no arguments, got %q", args)
		}
		var err error
		if ps, err = Parse(args); err != nil {
			return v, err
		}
	}
	for i, p := range t {
		text, set := ps.Take(p.Name)
		if err := p.parse(text, set, &v.vals[i]); err != nil {
			return v, err
		}
	}
	return v, ps.Unknown()
}

// parse converts one parameter's text, or fills in its default.
func (p Param) parse(text string, set bool, x *value) error {
	x.set = set
	if !set {
		if p.Type == Raw {
			return fmt.Errorf("needs %s", p.Meta)
		}
		x.f, x.i = p.Default, int(p.Default)
		return nil
	}
	var err error
	switch p.Type {
	case Float:
		if x.f, err = strconv.ParseFloat(text, 64); err != nil {
			return fmt.Errorf("%s=%q is not a number", p.Name, text)
		}
		if math.IsNaN(x.f) || math.IsInf(x.f, 0) {
			return fmt.Errorf("%s=%q is not finite", p.Name, text)
		}
		x.f += 0 // -0 and 0 are one value: one canonical key, one label
		return p.check(*x)
	case Int:
		if x.i, err = strconv.Atoi(text); err != nil {
			return fmt.Errorf("%s=%q is not an integer", p.Name, text)
		}
		return p.check(*x)
	case Uint:
		if x.u, err = strconv.ParseUint(text, 10, 64); err != nil {
			return fmt.Errorf("%s=%q is not an unsigned integer", p.Name, text)
		}
	case Flag:
		switch text {
		case "", "true", "1", "yes", "on":
			x.on = true
		case "false", "0", "no", "off":
		default:
			return fmt.Errorf("flag %q has non-boolean value %q", p.Name, text)
		}
	case Raw:
		x.s = text
	}
	return nil
}

// check enforces the declared range on a parsed Float or Int other
// than its Default.
func (p Param) check(x value) error {
	n := x.f
	if p.Type == Int {
		n = float64(x.i)
	}
	if n == p.Default {
		return nil
	}
	if n < p.Min || (p.Open && n == p.Min) || (p.Max > p.Min && n > p.Max) {
		return fmt.Errorf("%s=%s is outside %s", p.Name, p.append(nil, x), p.domain())
	}
	return nil
}

// domain renders the parameter's range as an interval, an Int's bounds
// as integers.
func (p Param) domain() string {
	format := byte('g')
	if p.Type == Int {
		format = 'f'
	}
	lo, hi := "[", "∞)"
	if p.Open {
		lo = "("
	}
	if p.Max > p.Min {
		hi = strconv.FormatFloat(p.Max, format, -1, 64) + "]"
	}
	return lo + strconv.FormatFloat(p.Min, format, -1, 64) + "," + hi
}

// append renders a value in its canonical form: parsing the rendering
// reproduces the value.
func (p Param) append(buf []byte, x value) []byte {
	switch p.Type {
	case Float:
		return strconv.AppendFloat(buf, x.f, 'g', -1, 64)
	case Int:
		return strconv.AppendInt(buf, int64(x.i), 10)
	case Uint:
		return strconv.AppendUint(buf, x.u, 10)
	}
	return append(buf, x.s...)
}

// shown reports whether the parameter appears in the canonical spelling.
func (p Param) shown(x value) bool {
	switch p.Type {
	case Float:
		return p.Always || x.f != p.Default
	case Int:
		return p.Always || x.i != int(p.Default)
	case Uint:
		return x.set
	case Flag:
		return x.on
	}
	return true
}

// Canonical renders the one spelling every accepted spelling of the
// same values shares: the kind name, then the shown parameters in
// declared order. Parsing it yields v again.
func (t Table) Canonical(name string, v Values) string {
	buf := append(make([]byte, 0, 64), name...)
	for i, p := range t {
		x := v.vals[i]
		if !p.shown(x) {
			continue
		}
		if len(buf) == len(name) {
			buf = append(buf, ':')
		} else {
			buf = append(buf, ',')
		}
		if !p.Positional {
			buf = append(buf, p.Name...)
			if p.Type == Flag {
				continue
			}
			buf = append(buf, '=')
		}
		buf = p.append(buf, x)
	}
	if len(buf) == len(name) {
		return name // nothing to spell out, nothing to allocate
	}
	return string(buf)
}

// Usage renders a kind's one-line listing: its grammar, the doc text,
// and every declared default and bounded range.
func (t Table) Usage(name, doc string) string {
	var keys, notes []string
	for _, p := range t {
		label, key := p.Name, p.Name
		switch {
		case p.Positional:
			label, key = p.Meta, p.Meta
		case p.Type != Flag:
			key += "=" + p.Meta
		}
		keys = append(keys, key)
		if (p.Type == Float || p.Type == Int) && (p.Default != 0 || p.Open || p.Max > p.Min) {
			notes = append(notes, fmt.Sprintf("%s in %s default %g", label, p.domain(), p.Default))
		}
	}
	grammar := name
	switch {
	case len(t) == 1 && t[0].Type == Raw:
		grammar += ":" + keys[0]
	case len(t) > 0:
		grammar += "[:" + strings.Join(keys, ",") + "]"
	}
	if len(notes) > 0 {
		doc += "; " + strings.Join(notes, ", ")
	}
	return grammar + " — " + doc
}

// validate panics on a table no spec could be parsed against.
func (t Table) validate(name string) {
	seen := map[string]bool{}
	for _, p := range t {
		switch {
		case p.Name == "" || seen[p.Name]:
			panic(fmt.Sprintf("spec: %s: parameter name %q is empty or repeated", name, p.Name))
		case p.Positional && len(t) != 1:
			panic(fmt.Sprintf("spec: %s: positional parameter %q must be the only one", name, p.Name))
		case p.Type == Raw && !p.Positional:
			panic(fmt.Sprintf("spec: %s: raw parameter %q must be positional", name, p.Name))
		}
		seen[p.Name] = true
	}
}
