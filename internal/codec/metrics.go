package codec

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Registry families for codec work, labeled by canonical spec and
// operation (compress, encode, decode, decompress). Call sites time the
// operation themselves and report through Observe* — wrapping Coder
// values would break the optional-capability type assertions
// (Ops, RegionReader, Shaper) consumers probe for.
var (
	codecOpTotal = obs.NewCounterVec("goblaz_codec_op_total",
		"Codec operations, by spec and op.", "spec", "op")
	codecOpSeconds = obs.NewHistogramVec("goblaz_codec_op_seconds",
		"Codec operation latency in seconds, by spec and op.", nil, "spec", "op")
	codecOpBytes = obs.NewCounterVec("goblaz_codec_op_bytes_total",
		"Bytes processed by codec operations (input for compress/decode, output for encode/decompress), by spec and op.", "spec", "op")
)

// opMetrics is the resolved child set for one (spec, op) pair.
type opMetrics struct {
	total   *obs.Counter
	seconds *obs.Histogram
	bytes   *obs.Counter
}

// opCells memoizes children so steady-state observation does no map
// writes and no label-key allocation beyond the first call per pair.
var opCells sync.Map // "spec\x1fop" → *opMetrics

func opMetricsFor(spec, op string) *opMetrics {
	key := spec + "\x1f" + op
	if m, ok := opCells.Load(key); ok {
		return m.(*opMetrics)
	}
	m := &opMetrics{
		total:   codecOpTotal.With(spec, op),
		seconds: codecOpSeconds.With(spec, op),
		bytes:   codecOpBytes.With(spec, op),
	}
	actual, _ := opCells.LoadOrStore(key, m)
	return actual.(*opMetrics)
}

// ObserveOp records one codec operation: op is one of "compress",
// "encode", "decode", "decompress"; bytes is the operation's natural
// payload size (float input bytes for compress/decompress, encoded
// bytes for encode/decode).
func ObserveOp(spec, op string, bytes int, d time.Duration) {
	m := opMetricsFor(spec, op)
	m.total.Inc()
	m.seconds.ObserveDuration(d)
	if bytes > 0 {
		m.bytes.Add(uint64(bytes))
	}
}

// TimedDecodeView decodes data with coder — through ViewDecoder.DecodeView
// when the coder has it, so the result may alias data — and records it as
// one "decode" operation under spec, on success only. A payload that
// failed to decode produced nothing, so it contributes neither a timing
// nor a byte count to the goblaz_codec_* families; the caller's error path
// accounts for it. The caller promises what ViewDecoder asks: data
// outlives the result and is never written. Every layer that times a
// decode (store.Reader.Frame, the cluster coordinator's payload fetch)
// goes through here.
func TimedDecodeView(coder Coder, spec string, data []byte) (Compressed, error) {
	start := time.Now()
	var c Compressed
	var err error
	if vd, ok := coder.(ViewDecoder); ok {
		c, err = vd.DecodeView(data)
	} else {
		c, err = coder.Decode(data)
	}
	if err == nil {
		ObserveOp(spec, "decode", len(data), time.Since(start))
	}
	return c, err
}
