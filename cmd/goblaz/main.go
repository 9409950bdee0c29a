// Command goblaz is the compressor CLI: it compresses and decompresses
// files of raw little-endian float64 arrays and reports compression
// statistics. Every codec comes from the registry: -codec names one by
// spec, and the goblaz flags (-block, -float, -index, -transform,
// -keep) are another way to write a goblaz spec. Every compressed file
// is one self-describing container that embeds the spec — for goblaz,
// around the paper's §IV-B stream — so decompress and info need no
// flags; raw goblaz streams written before the container still read.
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
	"repro/internal/tensor"
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
  goblaz compress   -shape N,M[,K] [CODEC] IN OUT    (OUT embeds the codec spec)
  goblaz decompress IN OUT
  goblaz info       IN
  goblaz stats      -shape N,M[,K] [CODEC] IN
  goblaz codecs
  goblaz pack       -shape N,M[,K] [CODEC] [-workers N] [-shards N]
                    [-auto [-candidates "SPEC;..."] [-max-err F] [-report JSON]] OUT FRAME...
  goblaz tune       -shape N,M[,K] [CODEC] [-candidates "SPEC;..."] [-max-err F] [-sample K]
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
                    [-req JSON|@FILE|-] [-cache-bytes N] [-timeout D] IN|MANIFEST|TOPOLOGY|URL
CODEC is -codec SPEC (e.g. zfp:rate=16), or a goblaz spec spelled as flags:
  [-block B,B[,B]] [-float T] [-index T] [-transform T] [-keep F]`)
	os.Exit(2)
}

type options struct {
	shape   []int
	spec    string // registry codec spec: -codec, or the goblaz flags
	workers int
	shards  int
}

// parseOptions parses the shared codec/shape flag set; extra (may be
// nil) registers subcommand-specific flags on the same set. The goblaz
// flags are written as one registry spec, which is resolved (and
// validated) by codec.Lookup where the subcommand needs its codec.
func parseOptions(name string, args []string, extra func(fs *flag.FlagSet)) (*options, []string, error) {
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
	spec := fs.String("codec", "", `registry codec spec, e.g. "zfp:rate=16" or "sz:mode=curvefit,tol=1e-4" (overrides the goblaz flags)`)
	workers := fs.Int("workers", 0, "parallel compression workers for pack (default GOMAXPROCS)")
	shards := fs.Int("shards", 0, "pack into N shard stores plus a manifest instead of one store")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	o := &options{spec: *spec, workers: *workers, shards: *shards}
	if *shapeStr != "" {
		var err error
		if o.shape, err = parseInts(*shapeStr); err != nil {
			return nil, nil, err
		}
	}
	if o.spec == "" {
		block := strings.TrimSuffix(strings.Repeat("4x", len(o.shape)), "x")
		if *blockStr != "" {
			block = strings.NewReplacer(",", "x", " ", "").Replace(*blockStr)
		}
		o.spec = fmt.Sprintf("goblaz:block=%s,float=%s,index=%s,transform=%s", block, *floatStr, *indexStr, *trStr)
		if *keep != 1 {
			o.spec += fmt.Sprintf(",keep=%g", *keep)
		}
	}
	return o, fs.Args(), nil
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

// --- codec container: every compressed file ---
//
// compress writes one self-describing container for every codec: a
// 4-byte magic, the big-endian uint16 length of the canonical codec
// spec, the spec string, then the codec's encoded payload — for goblaz,
// the paper's own §IV-B stream. decompress and info rebuild the codec
// from the embedded spec via the registry, so no flags are needed. A
// file that does not start with the magic is read as a raw goblaz
// stream, which is what compress wrote for the goblaz flags before the
// container carried every codec.
var codecMagic = []byte("GCDC")

// appendCodecFile appends the container of spec and payload to dst.
func appendCodecFile(dst []byte, spec string, payload []byte) ([]byte, error) {
	if len(spec) > 0xFFFF {
		return nil, fmt.Errorf("codec spec %q too long", spec)
	}
	dst = append(dst, codecMagic...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(spec)))
	dst = append(dst, spec...)
	return append(dst, payload...), nil
}

// parseCodecFile recognizes the codec container and returns the embedded
// spec and payload (which aliases blob); ok is false for a blob without
// the magic.
func parseCodecFile(blob []byte) (spec string, payload []byte, ok bool, err error) {
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

// compressedFile is a compressed file read back: the container's spec
// and payload (both empty for a raw goblaz stream), the decoded array,
// and the inverse that decompresses it.
type compressedFile struct {
	spec       string
	payload    []byte
	c          codec.Compressed
	decompress func() (*tensor.Tensor, error)
}

// readCompressedFile is the one reader behind decompress and info.
func readCompressedFile(path string) (*compressedFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, payload, ok, err := parseCodecFile(blob)
	if err != nil {
		return nil, err
	}
	if !ok {
		a, err := core.Decode(blob)
		if err != nil {
			return nil, err
		}
		c, err := core.NewCompressor(a.Settings)
		if err != nil {
			return nil, err
		}
		return &compressedFile{c: a, decompress: func() (*tensor.Tensor, error) { return c.Decompress(a) }}, nil
	}
	coder, err := codec.Lookup(spec)
	if err != nil {
		return nil, err
	}
	c, err := coder.Decode(payload)
	if err != nil {
		return nil, err
	}
	return &compressedFile{spec: spec, payload: payload, c: c, decompress: func() (*tensor.Tensor, error) { return coder.Decompress(c) }}, nil
}

func runCompress(args []string) error {
	o, rest, err := parseOptions("compress", args, nil)
	if err != nil {
		return err
	}
	if o.shape == nil || len(rest) != 2 {
		return fmt.Errorf("compress needs -shape and IN OUT paths")
	}
	coder, err := codec.Lookup(o.spec)
	if err != nil {
		return err
	}
	t, err := readTensor(rest[0], o.shape)
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
	blob, err := appendCodecFile(nil, coder.Spec(), payload)
	if err != nil {
		return err
	}
	if err := os.WriteFile(rest[1], blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("compressed %d → %d bytes with %s (ratio %.2f)\n",
		t.Len()*8, len(payload), coder.Spec(), float64(t.Len()*8)/float64(len(payload)))
	return nil
}

func runDecompress(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("decompress needs IN OUT paths")
	}
	f, err := readCompressedFile(args[0])
	if err != nil {
		return err
	}
	t, err := f.decompress()
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

// runInfo prints a container's spec and payload size, then the §IV-C
// description of a goblaz array.
func runInfo(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("info needs one path")
	}
	f, err := readCompressedFile(args[0])
	if err != nil {
		return err
	}
	if f.spec != "" {
		fmt.Printf("codec:        %s\n", f.spec)
		fmt.Printf("payload:      %d bytes\n", len(f.payload))
	}
	a, ok := f.c.(*core.CompressedArray)
	if !ok {
		return nil
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
	cd, err := codec.Lookup(o.spec)
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
