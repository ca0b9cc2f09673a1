package audit

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// liveSnapshot is a real machine's -snapshot dump: two CPUs with a victim
// cache, written by
//
//	vrsim -preset abaqus -scale 0.001 -l1 64 -l2 256 -org vr -victim 2 \
//	    -audit -snapshot internal/audit/testdata/abaqus-vr-victim.json
func liveSnapshot(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "abaqus-vr-victim.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestLiveSnapshotRoundTrip: the live dump checks clean, and writing it
// back reproduces the file byte for byte.
func TestLiveSnapshotRoundTrip(t *testing.T) {
	data := liveSnapshot(t)
	s, err := ParseJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if vs := s.Check(); len(vs) != 0 {
		t.Fatalf("live snapshot: %v", vs)
	}
	var out bytes.Buffer
	if err := s.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("live snapshot does not round-trip byte for byte")
	}
}

// FuzzSnapshotJSON feeds arbitrary bytes to ParseJSON. Whatever it accepts,
// Check must return without panicking, and writing, parsing and writing
// again must give the same bytes.
func FuzzSnapshotJSON(f *testing.F) {
	f.Add(liveSnapshot(f))
	var clean bytes.Buffer
	if err := cleanSnapshot().WriteJSON(&clean); err != nil {
		f.Fatal(err)
	}
	f.Add(clean.Bytes())
	f.Add([]byte(`{"organization":"x","references":0,"cpus":[null]}`))
	f.Add([]byte(`{"organization":"VR","references":5,"cpu":[{"cpu":0}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseJSON(bytes.NewReader(data))
		if err != nil {
			return // rejected without panicking: fine
		}
		s.Check()
		var first, second bytes.Buffer
		if err := s.WriteJSON(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ParseJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("our own dump does not parse: %v", err)
		}
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("dump is not a fixed point:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
