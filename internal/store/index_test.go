package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
)

// fillSpec is the k-th of a family of distinct, well-formed specs.
func fillSpec(k int) string { return fmt.Sprintf("fill:k=%d", k) }

// longSpec returns a well-formed spec of n bytes.
func longSpec(n int) string { return "fill:k=" + strings.Repeat("a", n-len("fill:k=")) }

func TestIndexSpecLimits(t *testing.T) {
	x, err := NewIndex("fill")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < maxSpecs; k++ {
		if id, err := x.SpecID(fillSpec(k)); err != nil || id != k+1 {
			t.Fatalf("SpecID(%q) = %d, %v; want %d", fillSpec(k), id, err, k+1)
		}
	}
	if _, err := x.SpecID("fill:k=new"); err == nil || !strings.Contains(err.Error(), "too many distinct codec specs") {
		t.Fatalf("65 536th extra spec: %v", err)
	}
	if x.NumSpecs() != maxSpecs+1 {
		t.Fatalf("refused spec changed the table: %d specs", x.NumSpecs())
	}
	// A spec already in the full table still resolves.
	if id, err := x.SpecID(fillSpec(7)); err != nil || id != 8 {
		t.Fatalf("SpecID of an interned spec in a full table = %d, %v", id, err)
	}

	y, err := NewIndex("fill")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := y.SpecID(longSpec(maxSpecLen + 1)); err == nil || !strings.Contains(err.Error(), "bytes long") {
		t.Fatalf("65 536-byte spec: %v", err)
	}
	if y.NumSpecs() != 1 {
		t.Fatalf("refused spec changed the table: %d specs", y.NumSpecs())
	}
	if id, err := y.SpecID(longSpec(maxSpecLen)); err != nil || id != 1 {
		t.Fatalf("65 535-byte spec = %d, %v", id, err)
	}
}

func TestWriterSpecLimitsAndFullTableRoundTrip(t *testing.T) {
	if _, err := NewWriter(&bytes.Buffer{}, longSpec(maxSpecLen+1)); err == nil {
		t.Error("65 536-byte default spec accepted")
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "fill")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < maxSpecs; k++ {
		if err := w.WriteFrameWithSpec(k, []byte{byte(k)}, fillSpec(k)); err != nil {
			t.Fatalf("frame %d: %v", k, err)
		}
	}
	if err := w.WriteFrameWithSpec(maxSpecs, []byte{1}, "fill:k=new"); err == nil {
		t.Error("Writer accepted a 65 536th extra spec")
	}
	if err := w.WriteFrameWithSpec(maxSpecs, []byte{1}, longSpec(maxSpecLen+1)); err == nil {
		t.Error("Writer accepted a 65 536-byte spec")
	}
	// Refusals do not poison the Writer: a known spec still lands.
	if err := w.WriteFrameWithSpec(maxSpecs, []byte{2}, fillSpec(3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("full spec table does not reopen: %v", err)
	}
	if !reflect.DeepEqual(r.Specs(), w.idx.Specs()) || !reflect.DeepEqual(r.Frames(), w.idx.Frames()) {
		t.Fatal("full spec table does not round-trip")
	}
	if r.NumSpecs() != maxSpecs+1 || r.FrameSpec(maxSpecs) != fillSpec(3) {
		t.Fatalf("reopened: %d specs, last frame under %q", r.NumSpecs(), r.FrameSpec(maxSpecs))
	}
}

// indexAlphabet is the spec alphabet FuzzIndexRoundTrip draws from: the
// default, the default spelled with its parameters permuted, two more
// specs (one a parameter-order permutation of the other's form), and a
// malformed spec the index must refuse.
var indexAlphabet = []string{
	"",
	"goblaz:block=4x4,index=int16",
	"goblaz:index=int16,block=4x4",
	"zfp:rate=16",
	"sz:mode=abs,tol=0.001",
	"sz:tol=0.001,mode=abs",
	"bad:k",
}

// FuzzIndexRoundTrip drives SpecID/Add/AppendFooter with a fuzzed frame
// sequence — each op a label byte, a spec pick and a payload length —
// and holds NewReader to returning exactly the frames and spec table
// the index holds. An op the index refuses (a malformed spec, a
// duplicate label) must leave it as it was.
func FuzzIndexRoundTrip(f *testing.F) {
	f.Add([]byte{1, 0, 3, 2, 1, 1, 3, 2, 4})
	f.Add([]byte{5, 3, 0, 6, 4, 2, 5, 6, 1, 7, 5, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const def = "goblaz:block=4x4,index=int16"
		var out bytes.Buffer
		if _, err := NewWriter(&out, def); err != nil { // the header alone
			t.Fatal(err)
		}
		x, err := NewIndex(def)
		if err != nil {
			t.Fatal(err)
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			label, spec := int(int8(ops[0])), indexAlphabet[int(ops[1])%len(indexAlphabet)]
			payload := bytes.Repeat([]byte{ops[0]}, int(ops[2]%8))
			frames, specs := x.Len(), x.NumSpecs()
			id, err := x.SpecID(spec)
			if err == nil {
				err = x.Add(FrameInfo{Label: label, Offset: int64(out.Len()), Length: int64(len(payload)),
					CRC32: crc32.ChecksumIEEE(payload), SpecID: id})
			}
			if err != nil {
				x.Truncate(frames, specs)
				if x.Len() != frames || x.NumSpecs() != specs {
					t.Fatalf("refused op left %d frames, %d specs; want %d, %d", x.Len(), x.NumSpecs(), frames, specs)
				}
				continue
			}
			out.Write(payload)
		}
		blob := x.AppendFooter(out.Bytes(), int64(out.Len()))
		r, err := NewReader(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			t.Fatalf("index footer does not reopen: %v", err)
		}
		if !reflect.DeepEqual(r.Specs(), x.Specs()) {
			t.Fatalf("specs %q, index holds %q", r.Specs(), x.Specs())
		}
		if r.NumSpecs() > 3 {
			t.Fatalf("%d specs from an alphabet of 3 distinct ones: %q", r.NumSpecs(), r.Specs())
		}
		if !reflect.DeepEqual(r.Frames(), x.Frames()) {
			t.Fatalf("frames %+v, index holds %+v", r.Frames(), x.Frames())
		}
		for i := 0; i < r.Len(); i++ {
			if j, ok := r.IndexOf(r.Info(i).Label); !ok || j != i {
				t.Fatalf("IndexOf(label of frame %d) = %d, %v", i, j, ok)
			}
			if _, err := r.Payload(i); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		}
	})
}
