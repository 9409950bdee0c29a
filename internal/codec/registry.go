package codec

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Params holds the key=value pairs of a codec spec. Factories consume the
// keys they understand with Take*; Lookup rejects the spec if any key is
// left over, so typos fail loudly instead of silently using a default.
type Params map[string]string

// Take removes and returns the value of key.
func (p Params) Take(key string) (string, bool) {
	v, ok := p[key]
	if ok {
		delete(p, key)
	}
	return v, ok
}

// TakeInt removes key and parses it as an int; def is returned when the
// key is absent.
func (p Params) TakeInt(key string, def int) (int, error) {
	v, ok := p.Take(key)
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("codec: parameter %s=%q is not an integer", key, v)
	}
	return n, nil
}

// TakeFloat removes key and parses it as a float64; def is returned when
// the key is absent.
func (p Params) TakeFloat(key string, def float64) (float64, error) {
	v, ok := p.Take(key)
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("codec: parameter %s=%q is not a number", key, v)
	}
	return f, nil
}

// TakeInts removes key and parses it as an "x"-separated list of positive
// integers (e.g. block=8x8); def is returned when the key is absent. The
// lists in codec specs are all extents, so zero and negative entries are
// rejected here — at the registry layer — rather than passed through to
// panic deep inside a factory's backend.
func (p Params) TakeInts(key string, def []int) ([]int, error) {
	v, ok := p.Take(key)
	if !ok {
		return def, nil
	}
	parts := strings.Split(v, "x")
	out := make([]int, len(parts))
	for i, part := range parts {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("codec: parameter %s=%q is not an x-separated integer list", key, v)
		}
		if n <= 0 {
			return nil, fmt.Errorf("codec: parameter %s=%q has non-positive extent %d", key, v, n)
		}
		out[i] = n
	}
	return out, nil
}

// Factory constructs a codec from spec parameters. It must consume every
// parameter it supports via Take*; leftovers make Lookup fail. Its codec
// serializes (Coder): a registered codec is one a store can hold.
type Factory func(p Params) (Coder, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register makes a codec constructible by name through Lookup. It panics
// if name is empty or already registered — duplicate registrations are
// programming errors, matching database/sql.Register.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == "" || f == nil {
		panic("codec: Register with empty name or nil factory")
	}
	if _, dup := registry[name]; dup {
		panic("codec: Register called twice for codec " + name)
	}
	registry[name] = f
}

// List returns the registered codec names, sorted.
func List() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ParseSpec splits a spec string "name" or "name:k=v,k=v" into the codec
// name and its parameters.
func ParseSpec(spec string) (string, Params, error) {
	name, rest, hasParams := strings.Cut(spec, ":")
	if name == "" {
		return "", nil, fmt.Errorf("codec: empty codec name in spec %q", spec)
	}
	params := Params{}
	if !hasParams {
		return name, params, nil
	}
	if rest == "" {
		return "", nil, fmt.Errorf("codec: trailing %q with no parameters in spec %q", ":", spec)
	}
	for _, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" || v == "" {
			return "", nil, fmt.Errorf("codec: bad parameter %q in spec %q (want key=value)", kv, spec)
		}
		if _, dup := params[k]; dup {
			return "", nil, fmt.Errorf("codec: duplicate parameter %q in spec %q", k, spec)
		}
		params[k] = v
	}
	return name, params, nil
}

// Canonical normalizes a spec string to its stable form: the codec name
// followed by its parameters sorted by key. Parsing Canonical's output
// yields the same name and parameters, and two specs that differ only
// in parameter order canonicalize identically — which is what lets the
// store's v2 spec-interning table and per-spec cache keys deduplicate
// "zfp:rate=16" written by different producers. Canonicalization is
// purely syntactic: the codec need not be registered, and parameter
// values are not validated or rewritten.
func Canonical(spec string) (string, error) {
	name, params, err := ParseSpec(spec)
	if err != nil {
		return "", err
	}
	if len(params) == 0 {
		return name, nil
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	for i, k := range keys {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(params[k])
	}
	return b.String(), nil
}

// Lookup constructs a codec from a spec string, e.g.
// "goblaz:block=8x8,index=int8" or "zfp:rate=16". Unknown codec names and
// unconsumed parameters are errors. The codec serializes: every Factory
// returns a Coder.
func Lookup(spec string) (Coder, error) {
	name, params, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("codec: unknown codec %q (registered: %s)", name, strings.Join(List(), ", "))
	}
	cd, err := f(params)
	if err != nil {
		return nil, err
	}
	if len(params) > 0 {
		keys := make([]string, 0, len(params))
		for k := range params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return nil, fmt.Errorf("codec: unknown parameter(s) %s for codec %q", strings.Join(keys, ", "), name)
	}
	return cd, nil
}
