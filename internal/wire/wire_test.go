package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	m := NewMessage(64)
	m.AppendByte(0xAB)
	m.AppendBool(true)
	m.AppendBool(false)
	m.AppendInt32(-12345)
	m.AppendInt64(1 << 40)
	m.AppendFloat64(3.14159)
	m.AppendString("hello, RMI")
	m.AppendBytes([]byte{1, 2, 3})

	r := FromBytes(m.Bytes())
	if r.ReadU8() != 0xAB || !r.ReadBool() || r.ReadBool() {
		t.Fatal("byte/bool round trip")
	}
	if r.ReadInt32() != -12345 || r.ReadInt64() != 1<<40 {
		t.Fatal("int round trip")
	}
	if r.ReadFloat64() != 3.14159 {
		t.Fatal("float round trip")
	}
	if r.ReadString() != "hello, RMI" {
		t.Fatal("string round trip")
	}
	if !bytes.Equal(r.ReadBytesView(), []byte{1, 2, 3}) {
		t.Fatal("bytes round trip")
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestSliceRoundTripProperty(t *testing.T) {
	f := func(ds []float64, is []int64, s string) bool {
		m := NewMessage(0)
		m.AppendFloat64Slice(ds)
		m.AppendInt64Slice(is)
		m.AppendString(s)
		r := FromBytes(m.Bytes())
		gd, _ := r.ReadFloat64SliceInto(nil, makeSlice[float64])
		gi, _ := r.ReadInt64SliceInto(nil, makeSlice[int64])
		gs := r.ReadString()
		if r.Err() != nil || len(gd) != len(ds) || len(gi) != len(is) || gs != s {
			return false
		}
		for i := range ds {
			if gd[i] != ds[i] && !(math.IsNaN(gd[i]) && math.IsNaN(ds[i])) {
				return false
			}
		}
		for i := range is {
			if gi[i] != is[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// makeSlice is the carve the wire tests hand the array readers.
func makeSlice[T any](n int) []T { return make([]T, n) }

func TestReadFloat64SliceIntoReuse(t *testing.T) {
	m := NewMessage(0)
	m.AppendFloat64Slice([]float64{1, 2, 3})
	dst := make([]float64, 3)
	r := FromBytes(m.Bytes())
	got, reused := r.ReadFloat64SliceInto(dst, makeSlice[float64])
	if !reused || &got[0] != &dst[0] {
		t.Fatal("matching-length destination not reused")
	}
	// Mismatched length must allocate fresh storage.
	r = FromBytes(m.Bytes())
	got, reused = r.ReadFloat64SliceInto(make([]float64, 5), makeSlice[float64])
	if reused || len(got) != 3 {
		t.Fatal("mismatched-length destination incorrectly reused")
	}
}

func TestReadInt64SliceIntoReuse(t *testing.T) {
	m := NewMessage(0)
	m.AppendInt64Slice([]int64{7, 8})
	dst := make([]int64, 2)
	r := FromBytes(m.Bytes())
	got, reused := r.ReadInt64SliceInto(dst, makeSlice[int64])
	if !reused || got[1] != 8 {
		t.Fatal("int reuse failed")
	}
}

// TestLyingLengthNeverCarved: an array length prefix is checked against
// the remaining payload before the carve runs, so a tiny frame claiming
// 2^31-1 elements is rejected without asking for the storage.
func TestLyingLengthNeverCarved(t *testing.T) {
	m := NewMessage(0)
	m.AppendInt32(math.MaxInt32)
	m.AppendInt64(1)
	carvedF := func(n int) []float64 { t.Fatalf("carve(%d) reached by a lying double[] length", n); return nil }
	carvedI := func(n int) []int64 { t.Fatalf("carve(%d) reached by a lying int[] length", n); return nil }
	r := FromBytes(m.Bytes())
	if vs, _ := r.ReadFloat64SliceInto(nil, carvedF); vs != nil || !errors.Is(r.Err(), ErrMalformedFrame) {
		t.Fatalf("double[] length bomb: vs=%v err=%v", vs, r.Err())
	}
	r = FromBytes(m.Bytes())
	if vs, _ := r.ReadInt64SliceInto(nil, carvedI); vs != nil || !errors.Is(r.Err(), ErrMalformedFrame) {
		t.Fatalf("int[] length bomb: vs=%v err=%v", vs, r.Err())
	}
	r = FromBytes(m.Bytes())
	if v := r.ReadBytesView(); v != nil || !errors.Is(r.Err(), ErrMalformedFrame) {
		t.Fatalf("byte[] length bomb: view=%d bytes err=%v", len(v), r.Err())
	}
}

func TestShortReadsAreSticky(t *testing.T) {
	r := FromBytes([]byte{1, 2})
	_ = r.ReadInt64()
	if !errors.Is(r.Err(), ErrShortMessage) {
		t.Fatalf("want ErrShortMessage, got %v", r.Err())
	}
	// Subsequent reads return zero values without panicking.
	if r.ReadInt32() != 0 || r.ReadString() != "" || r.ReadBytesView() != nil {
		t.Fatal("reads after error not zero")
	}
}

func TestNegativeLengthRejected(t *testing.T) {
	m := NewMessage(0)
	m.AppendInt32(-5)
	r := FromBytes(m.Bytes())
	if s := r.ReadString(); s != "" || r.Err() == nil {
		t.Fatalf("negative length accepted: %q err=%v", s, r.Err())
	}
}

func TestResetAndRewind(t *testing.T) {
	m := NewMessage(0)
	m.AppendInt32(42)
	if m.ReadInt32() != 42 {
		t.Fatal("read after write")
	}
	m.Rewind()
	if m.ReadInt32() != 42 {
		t.Fatal("rewind failed")
	}
	m.ResetTo(m.Bytes()[:0])
	if m.Len() != 0 || m.Remaining() != 0 {
		t.Fatal("ResetTo an empty buffer failed")
	}
}

func BenchmarkAppendFloat64Slice(b *testing.B) {
	data := make([]float64, 256)
	m := NewMessage(8 * 300)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.ResetTo(m.Bytes()[:0])
		m.AppendFloat64Slice(data)
	}
}
