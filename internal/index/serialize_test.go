package index

import (
	"bytes"
	"container/heap"
	"encoding/gob"
	"os"
	"strconv"
	"strings"
	"testing"
)

// wireOf round-trips a shard into its editable wire form so tests can
// corrupt one field at a time.
func wireOf(t *testing.T, s *Shard) *shardWire {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var w shardWire
	if err := gob.NewDecoder(&buf).Decode(&w); err != nil {
		t.Fatal(err)
	}
	return &w
}

func readWire(t *testing.T, w *shardWire) (*Shard, error) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return ReadShard(&buf)
}

func TestReadShardRejectsCorruptWire(t *testing.T) {
	s := buildTestShard(t)
	cases := []struct {
		name    string
		mutate  func(w *shardWire)
		errFrag string
	}{
		{"old version", func(w *shardWire) { w.Version = 2 }, "format version"},
		{"v3 version", func(w *shardWire) { w.Version = 3 }, "format version"},
		{"v4 version", func(w *shardWire) { w.Version = 4 }, "format version"},
		{"future version", func(w *shardWire) { w.Version = wireVersion + 1 }, "format version"},
		{"missing blocks", func(w *shardWire) { w.Blocks = w.Blocks[:1] }, "inconsistent term arrays"},
		{"missing stats", func(w *shardWire) { w.TermStats = w.TermStats[:1] }, "inconsistent term arrays"},
		{"missing packed payload", func(w *shardWire) { w.PackedData = w.PackedData[:1] }, "inconsistent term arrays"},
		{"corrupt packed payload", func(w *shardWire) { w.PackedData[0] = []byte{0xff} }, "checksum mismatch"},
		{"missing checksums", func(w *shardWire) { w.BlockSums = w.BlockSums[:1] }, "checksum arrays"},
		{"positional arrays", func(w *shardWire) { w.Positions = make([][][]uint32, 1) }, "positional arrays"},
		{"invalid shard", func(w *shardWire) { w.NumDocs++ }, "failed validation"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := wireOf(t, s)
			c.mutate(w)
			_, err := readWire(t, w)
			if err == nil {
				t.Fatalf("corruption %q decoded successfully", c.name)
			}
			if !strings.Contains(err.Error(), c.errFrag) {
				t.Fatalf("corruption %q: error %q does not mention %q", c.name, err, c.errFrag)
			}
		})
	}
}

// TestLegacyShardFilesRefused: the genuine v3/v4 shard files kept in the
// fuzz corpus are refused at load, never misread as the current format.
func TestLegacyShardFilesRefused(t *testing.T) {
	for name, errFrag := range map[string]string{
		"legacy-v3": "format version",
		"legacy-v4": "format version",
		"rot-v4":    "",
	} {
		raw, err := os.ReadFile("testdata/fuzz/FuzzShardDecode/" + name)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n")), ")")
		data, err := strconv.Unquote(strings.TrimPrefix(lit, "[]byte("))
		if err != nil {
			t.Fatalf("%s: corpus entry: %v", name, err)
		}
		_, err = ReadShard(strings.NewReader(data))
		if err == nil {
			t.Fatalf("%s: old-format file loaded", name)
		}
		if !strings.Contains(err.Error(), errFrag) {
			t.Fatalf("%s: error %q does not mention %q", name, err, errFrag)
		}
	}
}

func TestReadShardRejectsGarbage(t *testing.T) {
	if _, err := ReadShard(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("garbage decoded successfully")
	}
	if _, err := ReadShard(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream decoded successfully")
	}
}

func TestSaveFileErrors(t *testing.T) {
	s := buildTestShard(t)
	if err := s.SaveFile(t.TempDir() + "/missing-dir/shard.gob"); err == nil {
		t.Fatal("SaveFile into a missing directory should fail")
	}
	// A directory path fails at create time on write-open.
	if err := s.SaveFile(t.TempDir()); err == nil {
		t.Fatal("SaveFile onto a directory should fail")
	}
}

func TestLoadFileRejectsCorruptFile(t *testing.T) {
	path := t.TempDir() + "/bad.gob"
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Fatal("corrupt file loaded successfully")
	}
}

// floatMinHeap.Pop exists only to satisfy heap.Interface (heapInsertions
// uses Fix, never Pop); keep it honest anyway.
func TestFloatMinHeapPop(t *testing.T) {
	h := &floatMinHeap{}
	heap.Push(h, 3.0)
	heap.Push(h, 1.0)
	heap.Push(h, 2.0)
	for i, want := range []float64{1, 2, 3} {
		if got := heap.Pop(h).(float64); got != want {
			t.Fatalf("pop %d = %v, want %v", i, got, want)
		}
	}
}
