package query

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// The oracle for the hand-written encoder is encoding/json itself, run
// over copies of the result types as they were before the encoder
// existed: region values a plain []float64 (so a non-finite one fails
// the encoding) and Float's rule spelled out through json.Marshal.

type oldFloat float64

func (f oldFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

type oldRegion struct {
	Offset []int `json:"offset"`
	Shape  []int `json:"shape"`
	Values any   `json:"values"` // []float64, or []oldFloat to encode non-finite values
}

type oldFrameResult struct {
	Index                     int                 `json:"index"`
	Label                     int                 `json:"label"`
	Spec                      string              `json:"spec,omitempty"`
	Aggregates                map[string]oldFloat `json:"aggregates,omitempty"`
	Metric                    *oldFloat           `json:"metric,omitempty"`
	Region                    *oldRegion          `json:"region,omitempty"`
	Point                     *oldFloat           `json:"point,omitempty"`
	ExecutedInCompressedSpace bool                `json:"executedInCompressedSpace"`
}

type oldPair struct {
	A                         int      `json:"a"`
	B                         int      `json:"b"`
	Kind                      string   `json:"kind"`
	Value                     oldFloat `json:"value"`
	ExecutedInCompressedSpace bool     `json:"executedInCompressedSpace"`
}

type oldMoments struct {
	Frames int      `json:"frames"`
	N      int64    `json:"n"`
	Sum    oldFloat `json:"sum"`
	SumSq  oldFloat `json:"sumSq"`
	Min    oldFloat `json:"min"`
	Max    oldFloat `json:"max"`
}

type oldReduced struct {
	oldMoments
	Values map[string]oldFloat `json:"values"`
}

type oldResult struct {
	Spec                      string           `json:"spec"`
	Specs                     []string         `json:"specs,omitempty"`
	Frames                    []oldFrameResult `json:"frames"`
	Pair                      *oldPair         `json:"pair,omitempty"`
	Reduced                   *oldReduced      `json:"reduced,omitempty"`
	ExecutedInCompressedSpace bool             `json:"executedInCompressedSpace"`
}

func oldFloats(m map[string]Float) map[string]oldFloat {
	if m == nil {
		return nil
	}
	out := make(map[string]oldFloat, len(m))
	for k, v := range m {
		out[k] = oldFloat(v)
	}
	return out
}

func oldPtr(f *Float) *oldFloat {
	if f == nil {
		return nil
	}
	v := oldFloat(*f)
	return &v
}

// toOldFrame copies fr into the oracle types; nonFinite picks the
// region value type that can encode NaN and ±Inf.
func toOldFrame(fr *FrameResult, nonFinite bool) oldFrameResult {
	o := oldFrameResult{
		Index: fr.Index, Label: fr.Label, Spec: fr.Spec, Aggregates: oldFloats(fr.Aggregates),
		Metric: oldPtr(fr.Metric), Point: oldPtr(fr.Point), ExecutedInCompressedSpace: fr.ExecutedInCompressedSpace,
	}
	if r := fr.Region; r != nil {
		o.Region = &oldRegion{Offset: r.Offset, Shape: r.Shape, Values: r.Values}
		if nonFinite && r.Values != nil {
			vals := make([]oldFloat, len(r.Values))
			for i, v := range r.Values {
				vals[i] = oldFloat(v)
			}
			o.Region.Values = vals
		}
	}
	return o
}

func toOld(r *Result, nonFinite bool) *oldResult {
	o := &oldResult{Spec: r.Spec, Specs: r.Specs, ExecutedInCompressedSpace: r.ExecutedInCompressedSpace}
	if r.Frames != nil {
		o.Frames = make([]oldFrameResult, len(r.Frames))
		for i := range r.Frames {
			o.Frames[i] = toOldFrame(&r.Frames[i], nonFinite)
		}
	}
	if p := r.Pair; p != nil {
		o.Pair = &oldPair{A: p.A, B: p.B, Kind: p.Kind, Value: oldFloat(p.Value), ExecutedInCompressedSpace: p.ExecutedInCompressedSpace}
	}
	if red := r.Reduced; red != nil {
		o.Reduced = &oldReduced{
			oldMoments: oldMoments{Frames: red.Frames, N: red.N, Sum: oldFloat(red.Sum), SumSq: oldFloat(red.SumSq),
				Min: oldFloat(red.Min), Max: oldFloat(red.Max)},
			Values: oldFloats(red.Values),
		}
	}
	return o
}

// regionNonFinite reports whether any region of r holds a NaN or ±Inf.
func regionNonFinite(r *Result) bool {
	for _, fr := range r.Frames {
		if fr.Region == nil {
			continue
		}
		for _, v := range fr.Region.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
	}
	return false
}

// gen builds result values from fuzz bytes: each decision reads one
// byte, and an exhausted input reads zeros.
type gen struct{ b []byte }

func (g *gen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *gen) intn(n int) int { return int(g.byte()) % n }

func (g *gen) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(g.byte())
	}
	return v
}

var genFloats = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	1e-7, -1e-7, 1e-6, 9.99999e-7, 1e21, -1e21, 1e20, 999999999999999999999.0,
	5e-324, 2.2250738585072014e-308, 0x1p-1030, math.MaxFloat64, -math.SmallestNonzeroFloat64,
	1, -1.5, 0.1, 1.0 / 3, 123456789.123, 1e-300, 6.02214076e23,
}

func (g *gen) float() float64 {
	switch g.intn(3) {
	case 0:
		return genFloats[g.intn(len(genFloats))]
	case 1:
		return math.Float64frombits(g.u64())
	}
	return float64(int8(g.byte())) / 8
}

func (g *gen) int() int {
	switch g.intn(3) {
	case 0:
		return g.intn(10)
	case 1:
		return -g.intn(1000)
	}
	return int(int64(g.u64()))
}

var genStrings = []string{
	"", "goblaz:block=4x4,float=float64,index=int16", "zfp:rate=32", "mean", "stddev",
	"<script>&amp;</script>", "\u2028\u2029", "\x00\x01\x1f\x7f", "\xff\xfe", "é漢字🙂",
	`say "hi"`, `back\slash`, "\t\n\r\b\f", "\xed\xa0\x80", "\ufffd", "a\xc3",
}

func (g *gen) string() string {
	if g.intn(2) == 0 {
		return genStrings[g.intn(len(genStrings))]
	}
	n := g.intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = g.byte()
	}
	return string(b)
}

func (g *gen) floatPtr() *Float {
	if g.intn(2) == 0 {
		return nil
	}
	f := Float(g.float())
	return &f
}

func (g *gen) floatMap() map[string]Float {
	switch g.intn(4) {
	case 0:
		return nil
	case 1:
		return map[string]Float{}
	}
	m := map[string]Float{}
	for n := g.intn(10); n > 0; n-- {
		key := []string{AggMean, AggVariance, AggStdDev, AggMin, AggMax, AggL2Norm}[g.intn(6)]
		if g.intn(4) == 0 {
			key = g.string()
		}
		m[key] = Float(g.float())
	}
	return m
}

func (g *gen) ints() []int {
	switch g.intn(4) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	out := make([]int, 1+g.intn(4))
	for i := range out {
		out[i] = g.int()
	}
	return out
}

func (g *gen) frameResult() FrameResult {
	fr := FrameResult{Index: g.int(), Label: g.int(), ExecutedInCompressedSpace: g.intn(2) == 1}
	if g.intn(2) == 0 {
		fr.Spec = g.string()
	}
	fr.Aggregates = g.floatMap()
	fr.Metric = g.floatPtr()
	if g.intn(2) == 0 {
		fr.Region = &RegionResult{Offset: g.ints(), Shape: g.ints()}
		if g.intn(4) > 0 {
			fr.Region.Values = make([]float64, g.intn(12))
			for i := range fr.Region.Values {
				fr.Region.Values[i] = g.float()
			}
		}
	}
	fr.Point = g.floatPtr()
	return fr
}

func (g *gen) result() *Result {
	r := &Result{Spec: g.string(), ExecutedInCompressedSpace: g.intn(2) == 1}
	switch g.intn(3) {
	case 1:
		r.Specs = []string{}
	case 2:
		r.Specs = []string{r.Spec, g.string()}
	}
	if n := g.intn(5); n > 0 {
		r.Frames = make([]FrameResult, n-1) // n == 1: empty, not nil
		for i := range r.Frames {
			r.Frames[i] = g.frameResult()
		}
	}
	if g.intn(2) == 0 {
		r.Pair = &PairResult{A: g.int(), B: g.int(), Kind: []string{MetricDot, MetricPSNR, "x<y"}[g.intn(3)],
			Value: Float(g.float()), ExecutedInCompressedSpace: g.intn(2) == 1}
	}
	if g.intn(2) == 0 {
		r.Reduced = &ReducedResult{
			Moments: Moments{Frames: g.int(), N: int64(g.u64()), Sum: Float(g.float()), SumSq: Float(g.float()),
				Min: Float(g.float()), Max: Float(g.float())},
			Values: g.floatMap(),
		}
	}
	return r
}

// bitsEqual is reflect.DeepEqual with floats compared by their bits, so
// −0 differs from 0 and a NaN equals a NaN of the same payload.
func bitsEqual(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitsEqual(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if bv := b.MapIndex(k); !bv.IsValid() || !bitsEqual(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// canonical is what r decodes back to: omitempty drops an empty map or
// spec list, a NaN comes back with the payload math.NaN() has, and
// invalid UTF-8 in a string comes back as U+FFFD.
func canonical(r *Result) *Result {
	blob, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	var out Result
	if err := json.Unmarshal(blob, &out); err != nil {
		panic(err)
	}
	return &out
}

func checkAppendResult(t *testing.T, r *Result) {
	got := AppendResult(nil, r)
	nonFinite := regionNonFinite(r)
	if nonFinite {
		if _, err := json.Marshal(toOld(r, false)); err == nil {
			t.Fatal("encoding/json encoded a non-finite []float64")
		}
	}
	want, err := json.Marshal(toOld(r, nonFinite))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("AppendResult differs from encoding/json:\n got %s\nwant %s", got, want)
	}
	// The result types' own MarshalJSON methods (json.MarshalIndent in
	// goblaz query) agree with the encoder.
	if viaTypes, err := json.Marshal(r); err != nil || string(viaTypes) != string(got) {
		t.Fatalf("json.Marshal(Result) = %s, %v; AppendResult %s", viaTypes, err, got)
	}
	for i := range r.Frames {
		fr := &r.Frames[i]
		got := AppendFrameResult(nil, fr)
		want, err := json.Marshal(toOldFrame(fr, nonFinite))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("AppendFrameResult differs from encoding/json:\n got %s\nwant %s", got, want)
		}
	}
	// Every encoding round-trips through the reader, and one without an
	// escaped string does so on the fast path.
	if _, ok := parseResult(got); !ok && !bytes.Contains(got, []byte{'\\'}) {
		t.Fatalf("fast path rejected the encoder's layout %s", got)
	}
	back, err := ParseResult(got)
	if err != nil {
		t.Fatalf("ParseResult(%s): %v", got, err)
	}
	if want := canonical(r); !bitsEqual(reflect.ValueOf(back), reflect.ValueOf(want)) {
		t.Fatalf("round trip of %s:\n got %+v\nwant %+v", got, back, want)
	}
}

func FuzzAppendResult(f *testing.F) {
	for _, seed := range []string{"", "\x01", "\x02\x02\x02\x02\x02", strings.Repeat("\x01\x00\x07", 40), strings.Repeat("\xff\x03", 60)} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAppendResult(t, (&gen{b: data}).result())
	})
}

func TestAppendResultMatchesEncodingJSON(t *testing.T) {
	// Fixed generator streams cover every branch the fuzz target reaches
	// without a corpus.
	for seed := 0; seed < 2000; seed++ {
		data := make([]byte, 256)
		x := uint64(seed)*0x9e3779b97f4a7c15 + 1
		for i := range data {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			data[i] = byte(x)
		}
		checkAppendResult(t, (&gen{b: data}).result())
	}
}

// decode is the readers' fallback and oracle: what a json.Decoder reads
// from data, data after the first value ignored.
func decode(data []byte, v any) error {
	return json.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// checkParse compares the reflection-free readers with a json.Decoder on
// one input: whenever a fast path accepts the input, its value must be
// the Decoder's, floats compared by their bits; the exported readers
// must always agree with the Decoder, errors included.
func checkParse(t *testing.T, data []byte) {
	var want Result
	wantErr := decode(data, &want)
	if fast, ok := parseResult(data); ok {
		if wantErr != nil {
			t.Fatalf("fast path accepted %q, json.Decoder: %v", data, wantErr)
		}
		if !bitsEqual(reflect.ValueOf(fast).Elem(), reflect.ValueOf(want)) {
			t.Fatalf("fast path of %q:\n got %+v\nwant %+v", data, fast, want)
		}
	}
	if got, err := ParseResult(data); (err != nil) != (wantErr != nil) ||
		(err == nil && !bitsEqual(reflect.ValueOf(got).Elem(), reflect.ValueOf(want))) {
		t.Fatalf("ParseResult(%q) = %+v, %v; json.Decoder: %+v, %v", data, got, err, want, wantErr)
	}

	var wantFrame FrameResult
	wantFrameErr := decode(data, &wantFrame)
	if fast, ok := parseFrameResult(data); ok {
		if wantFrameErr != nil {
			t.Fatalf("frame fast path accepted %q, json.Decoder: %v", data, wantFrameErr)
		}
		if !bitsEqual(reflect.ValueOf(fast).Elem(), reflect.ValueOf(wantFrame)) {
			t.Fatalf("frame fast path of %q:\n got %+v\nwant %+v", data, fast, wantFrame)
		}
	}
	if got, err := ParseFrameResult(data); (err != nil) != (wantFrameErr != nil) ||
		(err == nil && !bitsEqual(reflect.ValueOf(got).Elem(), reflect.ValueOf(wantFrame))) {
		t.Fatalf("ParseFrameResult(%q) = %+v, %v; json.Decoder: %+v, %v", data, got, err, wantFrame, wantFrameErr)
	}
}

const (
	statsBody = `{"index":3,"label":7,"aggregates":{"max":1.5,"mean":0.25,"min":-1,"stddev":"NaN"},"executedInCompressedSpace":true}`
	queryBody = `{"spec":"goblaz:block=4x4","specs":["goblaz:block=4x4","zfp:rate=32"],"frames":[{"index":0,"label":0,"spec":"zfp:rate=32","metric":1e-7,"point":2,"executedInCompressedSpace":false}],"pair":{"a":0,"b":1,"kind":"dot","value":3,"executedInCompressedSpace":true},"reduced":{"frames":2,"n":32,"sum":1,"sumSq":2,"min":"+Inf","max":"-Inf","values":{"mean":0.5}},"executedInCompressedSpace":false}`
)

// parseSeeds are bodies in the encoder's layout and bodies just outside
// it, which the fallback reads.
var parseSeeds = []string{
	statsBody, statsBody + "\n", queryBody, queryBody + "\n",
	`{"index":0,"label":2,"region":{"offset":[1,2],"shape":[2,2],"values":[1,-0,"+Inf","-Inf"]},"executedInCompressedSpace":true}`,
	`{"index":0,"label":2,"region":{"offset":null,"shape":[],"values":null},"executedInCompressedSpace":true}`,
	`{"spec":"","frames":null,"reduced":{"frames":0,"n":0,"sum":0,"sumSq":0,"min":0,"max":0,"values":null},"executedInCompressedSpace":false}`,
	` { "executedInCompressedSpace" : true , "label" : -4 , "index" : 1 } `,
	`{"index":null,"label":null,"spec":null,"aggregates":null,"metric":null,"region":null,"point":null,"executedInCompressedSpace":null}`,
	`{"spec":null,"specs":null,"frames":null,"pair":null,"reduced":null}`,
	`{"frames":[null,{"index":1}],"specs":[null,"a"],"reduced":{"sum":null,"values":{"mean":null}}}`,
	`{"index":1,"extra":{"deep":[1,2,{"x":"y\u0041"}],"n":-0.5e+3},"label":2}`,
	`{"INDEX":5}`, `{"Label":5}`, `{"lab\u0065l":5}`, `{"ſpec":"x"}`, `{"index":1,"index":2}`,
	`{"index":1e2,"label":0,"executedInCompressedSpace":true}`, `{"index":1.0,"label":0,"executedInCompressedSpace":true}`,
	`{"index":-9223372036854775808,"label":9223372036854775807,"executedInCompressedSpace":true}`,
	`{"index":9223372036854775808,"label":0,"executedInCompressedSpace":true}`, `{"index":-0,"label":0,"executedInCompressedSpace":true}`,
	`{"index":01,"label":0,"executedInCompressedSpace":true}`, `{"index":99999999999999999999,"label":0,"executedInCompressedSpace":true}`,
	`{"index":0,"label":0,"metric":1e400,"executedInCompressedSpace":true}`, `{"index":0,"label":0,"metric":"inf","executedInCompressedSpace":true}`,
	`{"index":0,"label":0,"spec":"a\u00e9b","executedInCompressedSpace":true}`, `{"index":0,"label":0,"spec":"\xff","executedInCompressedSpace":true}`,
	`{"index":0,"label":0,"aggregates":{"\xffmean":1},"executedInCompressedSpace":true}`,
	`{"index":0,"label":0,"aggregates":{"mean":1,"mean":2},"executedInCompressedSpace":true}`,
	`{"index":1,"label":0,"executedInCompressedSpace":true} trailing`, `{"index":1,"label":0,"executedInCompressedSpace":true}}`,
	`{"index":1,"label":0,"executedInCompressedSpace":true}` + "\n\n",
	`{"index":`, `null`, `[]`, `"x"`, `{}`, ``, ` `, `{"frames":[]}`,
	`{"executedInCompressedSpace":1}`, `{"pair":{"kind":"mse","Value":1}}`, `{"reduced":{"N":3}}`,
}

func FuzzParseResult(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add([]byte(seed))
	}
	for seed := 0; seed < 20; seed++ {
		f.Add(AppendResult(nil, (&gen{b: []byte(strings.Repeat(string(rune('a'+seed)), 200))}).result()))
	}
	f.Fuzz(checkParse)
}

func TestParseMatchesEncodingJSON(t *testing.T) {
	for _, seed := range parseSeeds {
		checkParse(t, []byte(seed))
	}
}

// The fast path reads the encoder's layout only; whitespace, another key
// order, an unknown key or a null the encoder never writes decode through
// the fallback to the same value.
func TestParseFallsBackOutsideTheLayout(t *testing.T) {
	want, err := ParseFrameResult([]byte(statsBody))
	if _, ok := parseFrameResult([]byte(statsBody)); !ok || err != nil {
		t.Fatalf("fast path rejected the encoder's layout %s: %v", statsBody, err)
	}
	for _, body := range []string{
		` {"index":3,"label":7,"aggregates":{"max":1.5,"mean":0.25,"min":-1,"stddev":"NaN"},"executedInCompressedSpace":true}`,
		`{"index": 3,"label":7,"aggregates":{"max":1.5,"mean":0.25,"min":-1,"stddev":"NaN"},"executedInCompressedSpace":true}`,
		`{"label":7,"index":3,"aggregates":{"max":1.5,"mean":0.25,"min":-1,"stddev":"NaN"},"executedInCompressedSpace":true}`,
		`{"index":3,"label":7,"x":[1,{"y":null}],"aggregates":{"max":1.5,"mean":0.25,"min":-1,"stddev":"NaN"},"executedInCompressedSpace":true}`,
		`{"index":3,"label":7,"aggregates":{"max":1.5,"mean":0.25,"min":-1,"stddev":"NaN"},"point":null,"executedInCompressedSpace":true}`,
		`{"index":3,"label":7,"aggregates":{"max":1.5,"mean":0.25,"min":-1,"stddev":"NaN"},"executedInCompressedSpace":true} `,
	} {
		if _, ok := parseFrameResult([]byte(body)); ok {
			t.Errorf("fast path accepted %s", body)
		}
		got, err := ParseFrameResult([]byte(body))
		if err != nil || !bitsEqual(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Errorf("ParseFrameResult(%s) = %+v, %v; want %+v", body, got, err, want)
		}
	}
}

func TestResultCodecAllocs(t *testing.T) {
	mean, point := Float(0.25), Float(-3)
	stats := &FrameResult{Index: 3, Label: 7, ExecutedInCompressedSpace: true, Aggregates: map[string]Float{
		AggMean: 0.25, AggStdDev: 1.5, AggMin: -2, AggMax: Float(math.Inf(1)),
	}}
	buf := make([]byte, 0, 4096)
	if allocs := testing.AllocsPerRun(100, func() { buf = AppendFrameResult(buf[:0], stats) }); allocs != 0 {
		t.Errorf("AppendFrameResult into a reused buffer: %v allocs, want 0", allocs)
	}
	res := &Result{Spec: "goblaz:block=4x4", Specs: []string{"goblaz:block=4x4", "zfp:rate=32"},
		Frames: []FrameResult{*stats, {Index: 4, Label: 8, Spec: "zfp:rate=32", Metric: &mean, Point: &point,
			Region: &RegionResult{Offset: []int{0, 0}, Shape: []int{2, 2}, Values: []float64{1, 2, math.NaN(), 1e-9}}}},
		Reduced: &ReducedResult{Moments: EmptyMoments(), Values: map[string]Float{AggMean: 1}},
	}
	if allocs := testing.AllocsPerRun(100, func() { buf = AppendResult(buf[:0], res) }); allocs != 0 {
		t.Errorf("AppendResult into a reused buffer: %v allocs, want 0", allocs)
	}

	body := AppendFrameResult(nil, stats)
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := parseFrameResult(body); !ok {
			t.Fatalf("fast path rejected %s", body)
		}
	})
	// The FrameResult and the map's two objects; the keys are the
	// package constants.
	if allocs > 3 {
		t.Errorf("ParseFrameResult of a 4-aggregate body: %v allocs, want ≤ 3", allocs)
	}
	if _, ok := parseResult(AppendResult(nil, res)); !ok {
		t.Errorf("fast path rejected the encoder's own output %s", AppendResult(nil, res))
	}
}

// A region whose values are not all finite used to fail encoding/json
// and answer 500; it now encodes them by Float's rule and reads them
// back.
func TestRegionNonFiniteValues(t *testing.T) {
	r := RegionResult{Offset: []int{0, 0}, Shape: []int{2, 2}, Values: []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5}}
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"offset":[0,0],"shape":[2,2],"values":["NaN","+Inf","-Inf",-0.5]}`
	if string(blob) != want {
		t.Fatalf("json.Marshal = %s, want %s", blob, want)
	}
	var back RegionResult
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(back.Values[0]) || !math.IsInf(back.Values[1], 1) || !math.IsInf(back.Values[2], -1) || back.Values[3] != -0.5 {
		t.Fatalf("round trip = %v", back.Values)
	}
}
