// Command goblaz is the compressor CLI: it compresses and decompresses
// files of raw little-endian float64 arrays and reports compression
// statistics. Backends are selected through the codec registry with
// -codec; the default is the paper's compressor configured by the
// individual flags.
//
//	goblaz compress   -shape 200,400 -block 16,16 -float float32 -index int16 in.f64 out.blz
//	goblaz compress   -shape 200,400 -codec zfp:rate=16 in.f64 out.zfp
//	goblaz decompress out.blz back.f64
//	goblaz info       out.blz
//	goblaz stats      -shape 200,400 -codec sz:mode=curvefit,tol=1e-4 in.f64
//	goblaz codecs     (list registered codecs)
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/scalar"
	"repro/internal/tensor"
	"repro/internal/transform"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	var err error
	switch cmd {
	case "compress":
		err = runCompress(args)
	case "decompress":
		err = runDecompress(args)
	case "info":
		err = runInfo(args)
	case "stats":
		err = runStats(args)
	case "codecs":
		err = runCodecs(args)
	case "pack":
		err = runPack(args)
	case "tune":
		err = runTune(args)
	case "unpack":
		err = runUnpack(args)
	case "inspect":
		err = runInspect(args)
	case "serve":
		err = runServe(args)
	case "ingest":
		err = runIngest(args)
	case "query":
		err = runQuery(args)
	case "metrics":
		err = runMetrics(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "goblaz:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  goblaz compress   -shape N,M[,K] [-codec SPEC | -block ... -float T -index T -transform T -keep F] IN OUT
  goblaz decompress IN OUT
  goblaz info       IN
  goblaz stats      -shape N,M[,K] [options] IN
  goblaz codecs
  goblaz pack       -shape N,M[,K] [-codec SPEC] [-workers N] [-shards N]
                    [-auto [-candidates "SPEC;..."] [-max-err F] [-report JSON]] OUT FRAME...
  goblaz tune       -shape N,M[,K] [-candidates "SPEC;..."] [-max-err F] [-sample K]
                    [-w-ratio F] [-w-err F] [-w-lat F] [-report JSON] FRAME...
  goblaz unpack     [-frame LABEL] IN OUTPREFIX
  goblaz inspect    IN|MANIFEST|TOPOLOGY|URL
  goblaz serve      [-addr HOST:PORT] [-cache-bytes N] [-timeout D] [-debug-addr HOST:PORT]
                    [-max-concurrent N] [-max-queue N] [-queue-wait D]
                    [-metrics] [-log-json] [-slow-query D] [-topology CLUSTER.json]
                    [-ingest [NAME=]STORE [-ingest-spec SPEC] [-commit-every N]
                     [-commit-bytes B] [-commit-interval D] [-compact-bytes B]]
                    [NAME=]IN|MANIFEST|TOPOLOGY ...
  goblaz ingest     -shape N,M[,K] [-spec SPEC] [-label-start N] [-batch N]
                    [-commit-every N] [-commit-bytes B] [-timeout D] STORE|URL FRAME...
  goblaz metrics    [-json] [-timeout D] URL
  goblaz query      [-labels GLOB] [-from I] [-to I] [-aggs LIST] [-reduce LIST]
                    [-metric KIND [-against LABEL] [-peak P]] [-region OFF:SHAPE] [-point IDX]
                    [-req JSON|@FILE|-] [-cache-bytes N] [-timeout D] IN|MANIFEST|TOPOLOGY|URL`)
	os.Exit(2)
}

type options struct {
	shape, block []int
	floatT       scalar.FloatType
	indexT       scalar.IndexType
	transformK   transform.Kind
	keep         float64
	codecSpec    string
	workers      int
	shards       int
}

// parseOptions parses the shared codec/shape flag set; extra (may be
// nil) registers subcommand-specific flags on the same set.
func parseOptions(name string, args []string, extra func(fs *flag.FlagSet)) (*options, []string, error) {
	o := &options{}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	if extra != nil {
		extra(fs)
	}
	shapeStr := fs.String("shape", "", "comma-separated array shape (required)")
	blockStr := fs.String("block", "", "comma-separated block shape (default 4 per dimension)")
	floatStr := fs.String("float", "float32", "float type: bfloat16|float16|float32|float64")
	indexStr := fs.String("index", "int16", "index type: int8|int16|int32|int64")
	trStr := fs.String("transform", "dct", "transform: dct|haar|identity")
	keep := fs.Float64("keep", 1, "fraction of low-frequency coefficients to keep (0,1]")
	codecSpec := fs.String("codec", "", `registry codec spec, e.g. "zfp:rate=16" or "sz:mode=curvefit,tol=1e-4" (overrides the goblaz flags)`)
	workers := fs.Int("workers", 0, "parallel compression workers for pack (default GOMAXPROCS)")
	shards := fs.Int("shards", 0, "pack into N shard stores plus a manifest instead of one store")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	o.codecSpec = *codecSpec
	o.workers = *workers
	o.shards = *shards
	var err error
	if *shapeStr != "" {
		o.shape, err = parseInts(*shapeStr)
		if err != nil {
			return nil, nil, err
		}
	}
	if *blockStr != "" {
		o.block, err = parseInts(*blockStr)
		if err != nil {
			return nil, nil, err
		}
	} else if o.shape != nil {
		o.block = make([]int, len(o.shape))
		for i := range o.block {
			o.block[i] = 4
		}
	}
	if o.floatT, err = scalar.ParseFloatType(*floatStr); err != nil {
		return nil, nil, err
	}
	if o.indexT, err = scalar.ParseIndexType(*indexStr); err != nil {
		return nil, nil, err
	}
	if o.transformK, err = transform.ParseKind(*trStr); err != nil {
		return nil, nil, err
	}
	o.keep = *keep
	return o, fs.Args(), nil
}

func (o *options) settings() (core.Settings, error) {
	s := core.Settings{
		BlockShape: o.block,
		FloatType:  o.floatT,
		IndexType:  o.indexT,
		Transform:  o.transformK,
	}
	if o.keep < 1 {
		mask, err := core.KeepLowFrequency(o.block, o.keep)
		if err != nil {
			return s, err
		}
		s.Mask = mask
	}
	return s, nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in %q", p, s)
		}
		out[i] = v
	}
	return out, nil
}

func readTensor(path string, shape []int) (*tensor.Tensor, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	n := tensor.Prod(shape)
	if len(raw) != n*8 {
		return nil, fmt.Errorf("%s holds %d bytes, shape %v needs %d", path, len(raw), shape, n*8)
	}
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return tensor.FromSlice(data, shape...), nil
}

func writeTensor(path string, t *tensor.Tensor) error {
	raw := make([]byte, t.Len()*8)
	for i, v := range t.Data() {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	return os.WriteFile(path, raw, 0o644)
}

// --- codec container: how non-default backends round-trip through files ---
//
// Files written with -codec are self-describing: a 4-byte magic, the
// big-endian uint16 length of the canonical codec spec, the spec string,
// then the codec's encoded payload. Decompression reconstructs the codec
// from the embedded spec via the registry, so no flags are needed. The
// default goblaz path keeps the paper's own serialization format (§IV-B),
// which is already self-describing.
var codecMagic = []byte("GCDC")

func writeCodecFile(path string, cd codec.Codec, payload []byte) error {
	spec := cd.Spec()
	if len(spec) > 0xFFFF {
		return fmt.Errorf("codec spec %q too long", spec)
	}
	buf := make([]byte, 0, len(codecMagic)+2+len(spec)+len(payload))
	buf = append(buf, codecMagic...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(spec)))
	buf = append(buf, spec...)
	buf = append(buf, payload...)
	return os.WriteFile(path, buf, 0o644)
}

// splitCodecFile recognizes the codec container and returns the embedded
// spec and payload; ok is false for legacy core-format files.
func splitCodecFile(blob []byte) (spec string, payload []byte, ok bool, err error) {
	if len(blob) < len(codecMagic) || string(blob[:len(codecMagic)]) != string(codecMagic) {
		return "", nil, false, nil
	}
	if len(blob) < len(codecMagic)+2 {
		return "", nil, false, fmt.Errorf("truncated codec header")
	}
	n := int(binary.BigEndian.Uint16(blob[len(codecMagic):]))
	rest := blob[len(codecMagic)+2:]
	if len(rest) < n {
		return "", nil, false, fmt.Errorf("truncated codec header")
	}
	return string(rest[:n]), rest[n:], true, nil
}

func runCompress(args []string) error {
	o, rest, err := parseOptions("compress", args, nil)
	if err != nil {
		return err
	}
	if o.shape == nil || len(rest) != 2 {
		return fmt.Errorf("compress needs -shape and IN OUT paths")
	}
	t, err := readTensor(rest[0], o.shape)
	if err != nil {
		return err
	}
	if o.codecSpec != "" {
		coder, err := codec.Lookup(o.codecSpec)
		if err != nil {
			return err
		}
		c, err := coder.Compress(t)
		if err != nil {
			return err
		}
		payload, err := coder.Encode(c)
		if err != nil {
			return err
		}
		if err := writeCodecFile(rest[1], coder, payload); err != nil {
			return err
		}
		fmt.Printf("compressed %d → %d bytes with %s (ratio %.2f)\n",
			t.Len()*8, len(payload), coder.Spec(), float64(t.Len()*8)/float64(len(payload)))
		return nil
	}
	s, err := o.settings()
	if err != nil {
		return err
	}
	c, err := core.NewCompressor(s)
	if err != nil {
		return err
	}
	a, err := c.Compress(t)
	if err != nil {
		return err
	}
	blob, err := core.Encode(a)
	if err != nil {
		return err
	}
	if err := os.WriteFile(rest[1], blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("compressed %d → %d bytes (ratio %.2f)\n",
		t.Len()*8, len(blob), float64(t.Len()*8)/float64(len(blob)))
	return nil
}

func runDecompress(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("decompress needs IN OUT paths")
	}
	blob, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	if spec, payload, ok, err := splitCodecFile(blob); err != nil {
		return err
	} else if ok {
		coder, err := codec.Lookup(spec)
		if err != nil {
			return err
		}
		c, err := coder.Decode(payload)
		if err != nil {
			return err
		}
		t, err := coder.Decompress(c)
		if err != nil {
			return err
		}
		if err := writeTensor(args[1], t); err != nil {
			return err
		}
		fmt.Printf("decompressed to %v with %s (%d bytes)\n", t.Shape(), spec, t.Len()*8)
		return nil
	}
	a, err := core.Decode(blob)
	if err != nil {
		return err
	}
	c, err := core.NewCompressor(a.Settings)
	if err != nil {
		return err
	}
	t, err := c.Decompress(a)
	if err != nil {
		return err
	}
	if err := writeTensor(args[1], t); err != nil {
		return err
	}
	fmt.Printf("decompressed to %v (%d bytes)\n", t.Shape(), t.Len()*8)
	return nil
}

func runCodecs(args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("codecs takes no arguments")
	}
	for _, name := range codec.List() {
		cd, err := codec.Lookup(name)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s default spec: %s\n", name, cd.Spec())
	}
	return nil
}

func runInfo(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("info needs one path")
	}
	blob, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	if spec, payload, ok, err := splitCodecFile(blob); err != nil {
		return err
	} else if ok {
		fmt.Printf("codec:        %s\n", spec)
		fmt.Printf("payload:      %d bytes\n", len(payload))
		return nil
	}
	a, err := core.Decode(blob)
	if err != nil {
		return err
	}
	s := a.Settings
	fmt.Printf("shape:        %v\n", a.Shape)
	fmt.Printf("block shape:  %v\n", s.BlockShape)
	fmt.Printf("blocks:       %v (%d)\n", a.Blocks, a.NumBlocks())
	fmt.Printf("float type:   %v\n", s.FloatType)
	fmt.Printf("index type:   %v\n", s.IndexType)
	fmt.Printf("transform:    %v\n", s.Transform)
	fmt.Printf("kept/block:   %d of %d\n", a.Kept(), tensor.Prod(s.BlockShape))
	ratio, err := core.CompressionRatio(s, a.Shape, 64)
	if err != nil {
		return err
	}
	fmt.Printf("asymptotic ratio (vs float64): %.2f\n", ratio)
	return nil
}

func runStats(args []string) error {
	o, rest, err := parseOptions("stats", args, nil)
	if err != nil {
		return err
	}
	if o.shape == nil || len(rest) != 1 {
		return fmt.Errorf("stats needs -shape and one IN path")
	}
	if o.codecSpec != "" {
		cd, err := codec.Lookup(o.codecSpec)
		if err != nil {
			return err
		}
		t, err := readTensor(rest[0], o.shape)
		if err != nil {
			return err
		}
		c, err := cd.Compress(t)
		if err != nil {
			return err
		}
		back, err := cd.Decompress(c)
		if err != nil {
			return err
		}
		size := cd.EncodedSize(c)
		fmt.Printf("codec:             %s\n", cd.Spec())
		fmt.Printf("measured ratio:    %.2f (%d → %d bytes)\n",
			float64(t.Len()*8)/float64(size), t.Len()*8, size)
		fmt.Printf("L∞ error:          %.6g\n", t.MaxAbsDiff(back))
		fmt.Printf("RMSE:              %.6g\n", t.RMSE(back))
		fmt.Printf("value range:       [%.6g, %.6g]\n", t.Min(), t.Max())
		return nil
	}
	s, err := o.settings()
	if err != nil {
		return err
	}
	c, err := core.NewCompressor(s)
	if err != nil {
		return err
	}
	t, err := readTensor(rest[0], o.shape)
	if err != nil {
		return err
	}
	a, err := c.Compress(t)
	if err != nil {
		return err
	}
	back, err := c.Decompress(a)
	if err != nil {
		return err
	}
	ratio, err := core.CompressionRatio(s, o.shape, 64)
	if err != nil {
		return err
	}
	fmt.Printf("asymptotic ratio:  %.2f\n", ratio)
	fmt.Printf("L∞ error:          %.6g\n", t.MaxAbsDiff(back))
	fmt.Printf("RMSE:              %.6g\n", t.RMSE(back))
	fmt.Printf("value range:       [%.6g, %.6g]\n", t.Min(), t.Max())
	return nil
}
