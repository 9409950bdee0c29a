package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

const (
	mixGoblaz = "goblaz:block=4x4,float=float64,index=int16"
	mixZfp    = "zfp:rate=16"
)

// encodeFrame compresses testFrame(label) with the given coder and
// returns the payload plus the exact values a reader must decode.
func encodeFrame(t *testing.T, spec string, label int) (payload []byte, want []float64) {
	t.Helper()
	coder := mustCoder(t, spec)
	c, err := coder.Compress(testFrame(label))
	if err != nil {
		t.Fatal(err)
	}
	payload, err = coder.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := coder.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := coder.Decompress(dec)
	if err != nil {
		t.Fatal(err)
	}
	return payload, append([]float64(nil), tt.Data()...)
}

func TestMixedCodecRoundTrip(t *testing.T) {
	// Alternate two codecs frame by frame; the reader must hand back each
	// frame through the codec that wrote it, bit-for-bit.
	specs := []string{mixGoblaz, mixZfp, mixGoblaz, mixZfp, mixZfp}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, mixGoblaz)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, len(specs))
	for i, spec := range specs {
		payload, vals := encodeFrame(t, spec, 10+i)
		want[i] = vals
		if err := w.WriteFrameWithSpec(10+i, payload, spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 2 {
		t.Fatalf("Version = %d, want 2", r.Version())
	}
	if got := r.Specs(); len(got) != 2 || got[0] != mixGoblaz || got[1] != mixZfp {
		t.Errorf("Specs() = %v, want [%s %s]", got, mixGoblaz, mixZfp)
	}
	for i, spec := range specs {
		if r.FrameSpec(i) != spec {
			t.Errorf("FrameSpec(%d) = %q, want %q", i, r.FrameSpec(i), spec)
		}
		coder, err := r.FrameCoder(i)
		if err != nil {
			t.Fatal(err)
		}
		// Spec() may fill in defaults (e.g. transform=dct) beyond the
		// stored string, but the codec name must match.
		if wantCoder := mustCoder(t, spec); coder.Name() != wantCoder.Name() {
			t.Errorf("FrameCoder(%d).Name() = %q, want %q", i, coder.Name(), wantCoder.Name())
		}
		tt, err := r.Decompress(i)
		if err != nil {
			t.Fatalf("Decompress(%d): %v", i, err)
		}
		for j, v := range tt.Data() {
			if v != want[i][j] {
				t.Fatalf("frame %d value %d = %v, want %v", i, j, v, want[i][j])
			}
		}
	}
}

func TestUniformStoreHasEmptySpecTable(t *testing.T) {
	// Frames written with the default spec — via Append or by naming it
	// explicitly in any parameter order — must not grow the spec table.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, mixGoblaz)
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := encodeFrame(t, mixGoblaz, 10)
	if err := w.Append(10, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrameWithSpec(11, payload, mixGoblaz); err != nil {
		t.Fatal(err)
	}
	// Same codec, shuffled parameter order: canonical interning dedups.
	if err := w.WriteFrameWithSpec(12, payload, "goblaz:index=int16,float=float64,block=4x4"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Specs()) != 1 {
		t.Errorf("Specs() = %v, want just the default", r.Specs())
	}
	for i := 0; i < r.Len(); i++ {
		if r.Info(i).SpecID != 0 {
			t.Errorf("frame %d SpecID = %d, want 0", i, r.Info(i).SpecID)
		}
	}
}

func TestWriteFrameWithSpecRejectsMalformed(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, mixGoblaz)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrameWithSpec(10, []byte{1}, "bad:k"); err == nil {
		t.Error("malformed spec accepted")
	}
	if err := w.Append(10, []byte{1}); err != nil {
		t.Errorf("writer poisoned by rejected spec: %v", err)
	}
}

// writeV1Store handcrafts a version-1 store image — the pre-spec-table
// format with 28-byte index entries — since Writer only emits v2 now.
func writeV1Store(spec string, labels []int, payloads [][]byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(headerMagic)
	buf.WriteByte(version1)
	var lb [2]byte
	binary.BigEndian.PutUint16(lb[:], uint16(len(spec)))
	buf.Write(lb[:])
	buf.WriteString(spec)
	entries := make([]FrameInfo, len(payloads))
	for i, p := range payloads {
		entries[i] = FrameInfo{
			Label:  labels[i],
			Offset: int64(buf.Len()),
			Length: int64(len(p)),
			CRC32:  crc32.ChecksumIEEE(p),
		}
		buf.Write(p)
	}
	footerOff := buf.Len()
	var footer []byte
	for _, e := range entries {
		footer = appendEntry(footer, e)
		footer = footer[:len(footer)-2] // drop the v2-only spec id
	}
	buf.Write(footer)
	var tr [trailerSize]byte
	binary.BigEndian.PutUint64(tr[0:], uint64(footerOff))
	binary.BigEndian.PutUint64(tr[8:], uint64(len(entries)))
	binary.BigEndian.PutUint32(tr[16:], crc32.ChecksumIEEE(footer))
	copy(tr[20:], trailerMagic)
	buf.Write(tr[:])
	return buf.Bytes()
}

func TestV1StoreReads(t *testing.T) {
	// A freshly handcrafted v1 image reads through the same Reader with
	// every frame on the default spec.
	var labels []int
	var payloads [][]byte
	var want [][]float64
	for i := 0; i < 3; i++ {
		p, vals := encodeFrame(t, mixGoblaz, 20+i)
		labels = append(labels, 20+i)
		payloads = append(payloads, p)
		want = append(want, vals)
	}
	blob := writeV1Store(mixGoblaz, labels, payloads)
	r, err := NewReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 1 {
		t.Fatalf("Version = %d, want 1", r.Version())
	}
	if len(r.Specs()) != 1 {
		t.Errorf("v1 store Specs() = %v, want just the default", r.Specs())
	}
	for i := range payloads {
		if r.FrameSpec(i) != mixGoblaz {
			t.Errorf("FrameSpec(%d) = %q", i, r.FrameSpec(i))
		}
		tt, err := r.Decompress(i)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range tt.Data() {
			if v != want[i][j] {
				t.Fatalf("frame %d value %d = %v, want %v", i, j, v, want[i][j])
			}
		}
	}
}

// v1Golden is the decoded-values pin for the checked-in v1 fixture.
type v1Golden struct {
	Spec   string      `json:"spec"`
	Labels []int       `json:"labels"`
	Values [][]float64 `json:"values"`
}

// TestV1FixtureCompat pins format compatibility forever: the checked-in
// version-1 store must keep opening and decoding to byte-identical
// values. Regenerate (only if the fixture is missing, never to paper
// over a regression) with STORE_GEN_FIXTURE=1 go test -run V1Fixture.
func TestV1FixtureCompat(t *testing.T) {
	storePath := filepath.Join("testdata", "v1.store")
	goldenPath := filepath.Join("testdata", "v1.golden.json")
	if os.Getenv("STORE_GEN_FIXTURE") != "" {
		var g v1Golden
		g.Spec = mixGoblaz
		var payloads [][]byte
		for i := 0; i < 3; i++ {
			p, vals := encodeFrame(t, mixGoblaz, 30+i)
			g.Labels = append(g.Labels, 30+i)
			g.Values = append(g.Values, vals)
			payloads = append(payloads, p)
		}
		blob := writeV1Store(g.Spec, g.Labels, payloads)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		gj, err := json.MarshalIndent(g, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(storePath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, gj, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatalf("v1 fixture missing (generate once with STORE_GEN_FIXTURE=1): %v", err)
	}
	gj, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g v1Golden
	if err := json.Unmarshal(gj, &g); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatalf("checked-in v1 store no longer opens: %v", err)
	}
	if r.Version() != 1 || r.Spec() != g.Spec || r.Len() != len(g.Labels) {
		t.Fatalf("fixture: version %d spec %q frames %d, want 1 %q %d",
			r.Version(), r.Spec(), r.Len(), g.Spec, len(g.Labels))
	}
	for i, label := range g.Labels {
		if r.Info(i).Label != label {
			t.Fatalf("frame %d label = %d, want %d", i, r.Info(i).Label, label)
		}
		tt, err := r.Decompress(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(tt.Data()) != len(g.Values[i]) {
			t.Fatalf("frame %d decoded %d values, golden has %d", i, len(tt.Data()), len(g.Values[i]))
		}
		for j, v := range tt.Data() {
			if v != g.Values[i][j] {
				t.Fatalf("frame %d value %d = %v, golden %v — v1 decode drifted", i, j, v, g.Values[i][j])
			}
		}
	}
}

// syncFile wraps a file, recording the stream offset of every Sync so
// the crash-simulation test can truncate at exactly the durability
// points Close claims.
type syncFile struct {
	f     *os.File
	off   int64
	syncs []int64
}

func (s *syncFile) Write(p []byte) (int, error) {
	n, err := s.f.Write(p)
	s.off += int64(n)
	return n, err
}

func (s *syncFile) Sync() error {
	s.syncs = append(s.syncs, s.off)
	return s.f.Sync()
}

func TestCloseSyncsBeforeFooterCommit(t *testing.T) {
	// Close must fsync frame bytes BEFORE the footer/trailer commit
	// record goes out, and fsync again after it. Simulate the crash
	// window: a file truncated at the first sync point (frames durable,
	// commit record lost) must fail to open cleanly — never present a
	// valid trailer over unsynced payloads.
	dir := t.TempDir()
	path := filepath.Join(dir, "crash.store")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sf := &syncFile{f: f}
	w, err := NewWriter(sf, mixGoblaz)
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := encodeFrame(t, mixGoblaz, 10)
	if err := w.Append(10, payload); err != nil {
		t.Fatal(err)
	}
	frameEnd := sf.off
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sf.syncs) != 2 {
		t.Fatalf("Close issued %d syncs, want 2 (before footer, after trailer)", len(sf.syncs))
	}
	if sf.syncs[0] != frameEnd {
		t.Errorf("first sync at offset %d, want %d (all frames, no footer bytes)", sf.syncs[0], frameEnd)
	}
	if sf.syncs[1] != sf.off {
		t.Errorf("second sync at offset %d, want %d (after trailer)", sf.syncs[1], sf.off)
	}

	// The intact file opens and decodes.
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Decompress(0); err != nil {
		t.Fatal(err)
	}
	r.Close()

	// Crash replay: only the bytes durable at the first sync survive.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crashed := filepath.Join(dir, "crashed.store")
	if err := os.WriteFile(crashed, blob[:sf.syncs[0]], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(crashed); err == nil {
		t.Fatal("store truncated at the pre-footer sync point opened successfully")
	}
}

func FuzzFooterV2(f *testing.F) {
	// Frame region of a tiny valid store to graft arbitrary footers onto.
	payload := []byte{1, 2, 3, 4}
	var pre bytes.Buffer
	w, err := NewWriter(&pre, "zfp:rate=16")
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Append(7, payload); err != nil {
		f.Fatal(err)
	}
	prefixLen := pre.Len() // header + payload, no footer yet
	prefix := append([]byte(nil), pre.Bytes()...)
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := pre.Bytes()[prefixLen:] // the real footer + trailer
	f.Add(valid, uint64(prefixLen), uint64(1))

	// Corrupt spec id: point the entry at table entry 9 of an empty table.
	badSpec := append([]byte(nil), valid...)
	binary.BigEndian.PutUint16(badSpec[2+entrySize-2:], 9)
	footerCRC := crc32.ChecksumIEEE(badSpec[:len(badSpec)-trailerSize])
	binary.BigEndian.PutUint32(badSpec[len(badSpec)-8:], footerCRC)
	f.Add(badSpec, uint64(prefixLen), uint64(1))
	// Spec table claiming more entries than the footer holds.
	overlong := append([]byte(nil), valid...)
	binary.BigEndian.PutUint16(overlong, 0xFFFF)
	f.Add(overlong, uint64(prefixLen), uint64(1))
	f.Add([]byte{}, uint64(0), uint64(0))

	f.Fuzz(func(t *testing.T, footer []byte, footerOff, count uint64) {
		// Arbitrary footer bytes + trailer claims: NewReader must return
		// an error or a usable Reader — never panic, never a frame whose
		// spec id escapes the table.
		blob := append(append([]byte(nil), prefix...), footer...)
		var tr [trailerSize]byte
		binary.BigEndian.PutUint64(tr[0:], footerOff)
		binary.BigEndian.PutUint64(tr[8:], count)
		binary.BigEndian.PutUint32(tr[16:], crc32.ChecksumIEEE(footer))
		copy(tr[20:], trailerMagic)
		blob = append(blob, tr[:]...)
		r, err := NewReader(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			return
		}
		specs := r.Specs()
		for i := 0; i < r.Len(); i++ {
			if id := r.Info(i).SpecID; id < 0 || id >= len(specs) {
				t.Fatalf("frame %d spec id %d escaped table of %d", i, id, len(specs))
			}
			_ = r.FrameSpec(i)
			// Payload may fail (CRC, codec) but must not panic.
			_, _ = r.Payload(i)
			_, _ = r.Frame(i)
		}
	})
}

func TestCorruptSpecTableRejected(t *testing.T) {
	// Build a real mixed store, then corrupt the spec table in ways the
	// reader must catch (with the footer CRC recomputed so the CRC check
	// is not what saves us).
	var buf bytes.Buffer
	w, err := NewWriter(&buf, mixGoblaz)
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := encodeFrame(t, mixGoblaz, 10)
	p1, _ := encodeFrame(t, mixZfp, 11)
	if err := w.Append(10, p0); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrameWithSpec(11, p1, mixZfp); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	size := int64(len(blob))
	footerOff := int64(binary.BigEndian.Uint64(blob[size-trailerSize:]))

	patch := func(name string, mutate func(b []byte)) {
		crafted := append([]byte(nil), blob...)
		mutate(crafted)
		crc := crc32.ChecksumIEEE(crafted[footerOff : size-trailerSize])
		binary.BigEndian.PutUint32(crafted[size-8:], crc)
		if _, err := NewReader(bytes.NewReader(crafted), size); err == nil {
			t.Errorf("%s: corrupt spec table opened successfully", name)
		}
	}
	patch("count beyond table", func(b []byte) {
		binary.BigEndian.PutUint16(b[footerOff:], 0x7FFF)
	})
	patch("entry length beyond table", func(b []byte) {
		binary.BigEndian.PutUint16(b[footerOff+2:], 0xFFFF)
	})
	patch("zero-length spec", func(b []byte) {
		binary.BigEndian.PutUint16(b[footerOff+2:], 0)
	})
	patch("frame spec id beyond table", func(b []byte) {
		entriesOff := size - trailerSize - 2*entrySize
		binary.BigEndian.PutUint16(b[entriesOff+entrySize-2:], 400)
	})
}
