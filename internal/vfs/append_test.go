package vfs

import (
	"bytes"
	"testing"
)

// TestMemFSAppendAmortized pins geometric block growth: a first write
// allocates exactly its length, and filling a 64 KiB extent with 23
// record-sized appends reallocates the block a logarithmic number of
// times, not once per append.
func TestMemFSAppendAmortized(t *testing.T) {
	fs := NewMemFS()
	if err := WriteFile(fs, "/small", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if b := fs.nodes["/small"].blocks; len(b) != 1 || cap(b[0].data) != 100 {
		t.Fatalf("100-byte file: %d blocks, cap %d; want one 100-byte block", len(b), cap(b[0].data))
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec := bytes.Repeat([]byte{0x5a}, 2880)
	allocs := testing.AllocsPerRun(20, func() {
		if err := f.Truncate(0); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < BlockSize; off += len(rec) {
			p := rec[:min(len(rec), BlockSize-off)]
			if _, err := f.WriteAt(p, int64(off)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 8 {
		t.Fatalf("filling one block in 2880-byte appends took %.0f allocations, want <= 8", allocs)
	}
	got, err := ReadFile(fs, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0x5a}, BlockSize)) {
		t.Fatal("block content wrong after amortized appends")
	}
}

// TestMemFSCloneAppendIntoSpareCapacity: appends leave the tail block
// with spare capacity; after a Clone both trees append into that
// capacity, and each must read back only its own bytes.
func TestMemFSCloneAppendIntoSpareCapacity(t *testing.T) {
	m := NewMemFS()
	f, err := m.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Write(bytes.Repeat([]byte("A"), 2880)); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if b := m.nodes["/f"].blocks[0].data; cap(b) <= len(b) {
		t.Fatalf("tail block has no spare capacity (len %d cap %d); test premise broken", len(b), cap(b))
	}
	c := m.Clone()

	appendTo := func(fsys *MemFS, fill string) {
		t.Helper()
		f, err := fsys.Append("/f")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Write(bytes.Repeat([]byte(fill), 2880)); err != nil {
			t.Fatal(err)
		}
	}
	appendTo(m, "B")
	appendTo(c, "C")

	base := bytes.Repeat([]byte("A"), 3*2880)
	for _, tc := range []struct {
		name string
		fsys *MemFS
		fill string
	}{{"original", m, "B"}, {"clone", c, "C"}} {
		got, err := ReadFile(tc.fsys, "/f")
		if err != nil {
			t.Fatal(err)
		}
		want := append(append([]byte(nil), base...), bytes.Repeat([]byte(tc.fill), 2880)...)
		if !bytes.Equal(got, want) {
			t.Errorf("%s reads bytes it did not write", tc.name)
		}
	}
	if m.nodes["/f"].blocks[0] == c.nodes["/f"].blocks[0] {
		t.Fatal("both trees still share the block they each appended to")
	}
}
