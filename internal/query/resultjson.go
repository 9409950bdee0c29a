package query

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// This file owns the JSON format of query results. The Append functions
// write it by hand, byte for byte what encoding/json writes for the same
// value: struct fields in declaration order under their omitempty rules,
// map keys sorted, numbers by encoding/json's float rule, strings with
// its escaping (<, > and & as \u003c, \u003e and \u0026, U+2028 and
// U+2029, control bytes, invalid UTF-8 as \ufffd). The Parse functions
// read exactly that layout back without reflection and hand any other
// input to encoding/json, so every valid body decodes to the value a
// json.Decoder gives.

// AppendFrameResult appends the JSON encoding of fr to dst and returns
// the extended buffer; the bytes equal json.Marshal(fr)'s. It allocates
// only when dst runs out of capacity.
func AppendFrameResult(dst []byte, fr *FrameResult) []byte {
	if fr == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(fr.Index), 10)
	dst = append(dst, `,"label":`...)
	dst = strconv.AppendInt(dst, int64(fr.Label), 10)
	if fr.Spec != "" {
		dst = append(dst, `,"spec":`...)
		dst = appendString(dst, fr.Spec)
	}
	if len(fr.Aggregates) > 0 {
		dst = append(dst, `,"aggregates":`...)
		dst = appendFloatMap(dst, fr.Aggregates)
	}
	if fr.Metric != nil {
		dst = append(dst, `,"metric":`...)
		dst = appendFloat(dst, float64(*fr.Metric))
	}
	if fr.Region != nil {
		dst = append(dst, `,"region":`...)
		dst = appendRegion(dst, fr.Region)
	}
	if fr.Point != nil {
		dst = append(dst, `,"point":`...)
		dst = appendFloat(dst, float64(*fr.Point))
	}
	dst = append(dst, `,"executedInCompressedSpace":`...)
	dst = strconv.AppendBool(dst, fr.ExecutedInCompressedSpace)
	return append(dst, '}')
}

// AppendResult appends the JSON encoding of r to dst and returns the
// extended buffer; the bytes equal json.Marshal(r)'s.
func AppendResult(dst []byte, r *Result) []byte {
	if r == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, `{"spec":`...)
	dst = appendString(dst, r.Spec)
	if len(r.Specs) > 0 {
		dst = append(dst, `,"specs":[`...)
		for i, s := range r.Specs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, s)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"frames":`...)
	if r.Frames == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Frames {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendFrameResult(dst, &r.Frames[i])
		}
		dst = append(dst, ']')
	}
	if p := r.Pair; p != nil {
		dst = append(dst, `,"pair":{"a":`...)
		dst = strconv.AppendInt(dst, int64(p.A), 10)
		dst = append(dst, `,"b":`...)
		dst = strconv.AppendInt(dst, int64(p.B), 10)
		dst = append(dst, `,"kind":`...)
		dst = appendString(dst, p.Kind)
		dst = append(dst, `,"value":`...)
		dst = appendFloat(dst, float64(p.Value))
		dst = append(dst, `,"executedInCompressedSpace":`...)
		dst = strconv.AppendBool(dst, p.ExecutedInCompressedSpace)
		dst = append(dst, '}')
	}
	if red := r.Reduced; red != nil {
		dst = append(dst, `,"reduced":{"frames":`...)
		dst = strconv.AppendInt(dst, int64(red.Frames), 10)
		dst = append(dst, `,"n":`...)
		dst = strconv.AppendInt(dst, red.N, 10)
		dst = append(dst, `,"sum":`...)
		dst = appendFloat(dst, float64(red.Sum))
		dst = append(dst, `,"sumSq":`...)
		dst = appendFloat(dst, float64(red.SumSq))
		dst = append(dst, `,"min":`...)
		dst = appendFloat(dst, float64(red.Min))
		dst = append(dst, `,"max":`...)
		dst = appendFloat(dst, float64(red.Max))
		dst = append(dst, `,"values":`...)
		if red.Values == nil {
			dst = append(dst, "null"...)
		} else {
			dst = appendFloatMap(dst, red.Values)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `,"executedInCompressedSpace":`...)
	dst = strconv.AppendBool(dst, r.ExecutedInCompressedSpace)
	return append(dst, '}')
}

// appendRegion writes a region with Float's rule for its values.
func appendRegion(dst []byte, r *RegionResult) []byte {
	dst = append(dst, `{"offset":`...)
	dst = appendInts(dst, r.Offset)
	dst = append(dst, `,"shape":`...)
	dst = appendInts(dst, r.Shape)
	dst = append(dst, `,"values":`...)
	if r.Values == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, v := range r.Values {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloat(dst, v)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendInts(dst []byte, vs []int) []byte {
	if vs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// appendFloatMap writes m with its keys in byte order, as encoding/json
// sorts them. The keys are ordered in a stack array by insertion sort:
// an aggregate map holds at most six.
func appendFloatMap(dst []byte, m map[string]Float) []byte {
	var stack [8]string
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
		for j := len(keys) - 1; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, k)
		dst = append(dst, ':')
		dst = appendFloat(dst, float64(m[k]))
	}
	return append(dst, '}')
}

// appendFloat writes v by Float's rule: the non-finite values as the
// strings "+Inf", "-Inf" and "NaN", every other value as a JSON number.
func appendFloat(dst []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(dst, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(dst, `"-Inf"`...)
	case math.IsNaN(v):
		return append(dst, `"NaN"`...)
	}
	return appendNumber(dst, v)
}

// appendNumber writes finite v as encoding/json writes a float64: the
// shortest decimal that round-trips, in exponent form below 1e-6 and
// from 1e21 up, with a negative exponent's leading zero dropped (1e-07
// becomes 1e-7).
func appendNumber(dst []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString writes s as a JSON string escaped the way json.Marshal
// escapes it.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default: // the other control bytes, and <, > and &
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// ParseFrameResult decodes the JSON encoding of a FrameResult — what a
// stats or region route answers. The body AppendFrameResult writes,
// optionally ended by the newline a server adds, is read without
// reflection; any other input (whitespace, another key order, an unknown
// key, an escaped string, a malformed body) is decoded by a
// json.Decoder, so the value, or the error, is always json.Decoder's —
// which, like the client has always read a response, ignores data after
// the first value. Aggregate names come back as the package constants,
// not fresh strings.
func ParseFrameResult(b []byte) (*FrameResult, error) {
	if fr, ok := parseFrameResult(b); ok {
		return fr, nil
	}
	fr := new(FrameResult)
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(fr); err != nil {
		return nil, err
	}
	return fr, nil
}

// ParseResult decodes the JSON encoding of a Result — what the query
// route answers — under ParseFrameResult's rules.
func ParseResult(b []byte) (*Result, error) {
	if r, ok := parseResult(b); ok {
		return r, nil
	}
	r := new(Result)
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(r); err != nil {
		return nil, err
	}
	return r, nil
}

// parseFrameResult and parseResult are the reflection-free readers; false
// means the input is not the encoder's layout, not that it is invalid.
func parseFrameResult(b []byte) (*FrameResult, bool) {
	p := parser{b: b}
	fr := new(FrameResult)
	p.frameResult(fr, nil)
	return fr, p.end()
}

func parseResult(b []byte) (*Result, bool) {
	p := parser{b: b}
	r := new(Result)
	p.result(r)
	return r, p.end()
}

// parser reads the layout the Append functions write and nothing else:
// no whitespace, the fields in declaration order, each omitempty field
// present or absent, null only where the encoder writes one. The first
// byte outside that layout sets bad, after which every read is a no-op.
type parser struct {
	b   []byte
	i   int
	bad bool
}

// The methods below mirror AppendResult and AppendFrameResult line for
// line.

func (p *parser) result(r *Result) {
	p.expect(`{"spec":`)
	r.Spec = p.str(nil)
	if p.lit(`,"specs":`) {
		intern := []string{r.Spec}
		r.Specs = array(p, func() string { return p.str(intern) })
	}
	p.expect(`,"frames":`)
	if !p.lit("null") {
		r.Frames = make([]FrameResult, 0)
		p.elements(func() {
			r.Frames = append(r.Frames, FrameResult{})
			p.frameResult(&r.Frames[len(r.Frames)-1], r.Specs)
		})
	}
	if p.lit(`,"pair":`) {
		pr := new(PairResult)
		p.expect(`{"a":`)
		pr.A = p.integer()
		p.expect(`,"b":`)
		pr.B = p.integer()
		p.expect(`,"kind":`)
		pr.Kind = p.str(metricNames)
		p.expect(`,"value":`)
		pr.Value = Float(p.float())
		p.expect(`,"executedInCompressedSpace":`)
		pr.ExecutedInCompressedSpace = p.boolean()
		p.expect("}")
		r.Pair = pr
	}
	if p.lit(`,"reduced":`) {
		red := new(ReducedResult)
		p.expect(`{"frames":`)
		red.Frames = p.integer()
		p.expect(`,"n":`)
		red.N = int64(p.integer())
		p.expect(`,"sum":`)
		red.Sum = Float(p.float())
		p.expect(`,"sumSq":`)
		red.SumSq = Float(p.float())
		p.expect(`,"min":`)
		red.Min = Float(p.float())
		p.expect(`,"max":`)
		red.Max = Float(p.float())
		p.expect(`,"values":`)
		if !p.lit("null") {
			red.Values = p.floatMap()
		}
		p.expect("}")
		r.Reduced = red
	}
	p.expect(`,"executedInCompressedSpace":`)
	r.ExecutedInCompressedSpace = p.boolean()
	p.expect("}")
}

var metricNames = []string{MetricMSE, MetricPSNR, MetricDot, MetricCosine}

// frameResult reads one frame's answer into fr; a spec equal to one of
// specs shares that string.
func (p *parser) frameResult(fr *FrameResult, specs []string) {
	p.expect(`{"index":`)
	fr.Index = p.integer()
	p.expect(`,"label":`)
	fr.Label = p.integer()
	if p.lit(`,"spec":`) {
		fr.Spec = p.str(specs)
	}
	if p.lit(`,"aggregates":`) {
		fr.Aggregates = p.floatMap()
	}
	if p.lit(`,"metric":`) {
		fr.Metric = p.floatPtr()
	}
	if p.lit(`,"region":`) {
		r := new(RegionResult)
		p.expect(`{"offset":`)
		r.Offset = array(p, p.integer)
		p.expect(`,"shape":`)
		r.Shape = array(p, p.integer)
		p.expect(`,"values":`)
		r.Values = array(p, p.float)
		p.expect("}")
		fr.Region = r
	}
	if p.lit(`,"point":`) {
		fr.Point = p.floatPtr()
	}
	p.expect(`,"executedInCompressedSpace":`)
	fr.ExecutedInCompressedSpace = p.boolean()
	p.expect("}")
}

// lit consumes s if the input continues with it.
func (p *parser) lit(s string) bool {
	if !p.bad && len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

// expect consumes s, which the layout requires here.
func (p *parser) expect(s string) {
	if !p.lit(s) {
		p.bad = true
	}
}

// end reports whether the whole input was read, bar one final newline.
func (p *parser) end() bool {
	p.lit("\n")
	return !p.bad && p.i == len(p.b)
}

// elements reads one array, calling elem to read each entry.
func (p *parser) elements(elem func()) {
	p.expect("[")
	if p.lit("]") {
		return
	}
	for !p.bad {
		elem()
		if !p.lit(",") {
			p.expect("]")
			return
		}
	}
}

// array reads an array of scalars, or null (nil), with elem reading each
// entry into a slice sized by count.
func array[T any](p *parser, elem func() T) []T {
	if p.lit("null") {
		return nil
	}
	out := make([]T, 0, p.count())
	p.elements(func() { out = append(out, elem()) })
	return out
}

// count sizes the array whose '[' is at p.i: one more than the commas
// before the first ']', or 0 when the array is empty. It only sizes an
// allocation, so a comma inside a string may overcount.
func (p *parser) count() int {
	if p.bad || p.i+1 >= len(p.b) || p.b[p.i] != '[' || p.b[p.i+1] == ']' {
		return 0
	}
	n := 1
	for _, c := range p.b[p.i+1:] {
		switch c {
		case ',':
			n++
		case ']':
			return n
		}
	}
	return n
}

// integer reads an int the way encoding/json does: a JSON integer
// without fraction or exponent, in int's range.
func (p *parser) integer() int {
	if p.bad {
		return 0
	}
	neg := p.lit("-")
	var v uint64
	digits := p.i
	for ; p.i < len(p.b) && isDigit(p.b[p.i]); p.i++ {
		v = v*10 + uint64(p.b[p.i]-'0')
	}
	// Nineteen digits cannot overflow v; longer ones and leading zeros are
	// encoding/json's to judge, and so is a fraction or an exponent: the
	// '.' or 'e' after the digits is not the ',' or '}' the layout wants.
	n, limit := p.i-digits, uint64(math.MaxInt)
	if neg {
		limit++
	}
	if n == 0 || n > 19 || (n > 1 && p.b[digits] == '0') || v > limit {
		p.bad = true
		return 0
	}
	if neg {
		return -int(v) // v == MaxInt+1 wraps to MinInt, its own negation
	}
	return int(v)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// float reads a value by Float's rule: a number, or one of the strings
// "+Inf", "-Inf" and "NaN". A number out of float64's range is
// encoding/json's to reject.
func (p *parser) float() float64 {
	switch {
	case p.lit(`"NaN"`):
		return math.NaN()
	case p.lit(`"+Inf"`):
		return math.Inf(1)
	case p.lit(`"-Inf"`):
		return math.Inf(-1)
	}
	start := p.i
	if !p.scanNumber() {
		p.bad = true
		return 0
	}
	v, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	p.bad = err != nil
	return v
}

// scanNumber consumes one number of the JSON grammar.
func (p *parser) scanNumber() bool {
	b, i := p.b, p.i
	if p.bad {
		return false
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			return false
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return false
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	p.i = i
	return true
}

func (p *parser) floatPtr() *Float {
	f := Float(p.float())
	return &f
}

func (p *parser) boolean() bool {
	if p.lit("true") {
		return true
	}
	p.expect("false")
	return false
}

// rawString consumes a string without escapes and returns its bytes. A
// string with an escape, a control byte or invalid UTF-8 (which
// encoding/json replaces) is outside the layout.
func (p *parser) rawString() []byte {
	if p.lit(`"`) {
		if n := bytes.IndexByte(p.b[p.i:], '"'); n >= 0 {
			s, plain := p.b[p.i:p.i+n], true
			for _, c := range s {
				plain = plain && c != '\\' && c >= 0x20
			}
			if plain && utf8.Valid(s) {
				p.i += n + 1
				return s
			}
		}
	}
	p.bad = true
	return nil
}

// str reads a string. A value equal to one of intern shares that string
// instead of allocating its own.
func (p *parser) str(intern []string) string {
	raw := p.rawString()
	if p.bad {
		return ""
	}
	for _, s := range intern {
		if string(raw) == s {
			return s
		}
	}
	return string(raw)
}

// floatMap reads a kind → value object by Float's rule. Aggregate kinds
// come back as the package constants.
func (p *parser) floatMap() map[string]Float {
	m := make(map[string]Float)
	p.expect("{")
	if p.lit("}") {
		return m
	}
	for !p.bad {
		key := p.rawString()
		p.expect(":")
		v := p.float()
		if p.bad {
			break
		}
		m[aggKind(key)] = Float(v)
		if !p.lit(",") {
			p.expect("}")
			break
		}
	}
	return m
}

// aggKind returns key as the package constant it spells, or a copy.
func aggKind(key []byte) string {
	switch string(key) {
	case AggMean:
		return AggMean
	case AggVariance:
		return AggVariance
	case AggStdDev:
		return AggStdDev
	case AggMin:
		return AggMin
	case AggMax:
		return AggMax
	case AggL2Norm:
		return AggL2Norm
	}
	return string(key)
}
