package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"runtime"
	"testing"
)

// TestReadFrameDeclaredLengthReservesNothing: a header declaring the
// largest legal frame, followed by EOF, is a truncation error, and
// reading it allocates memory for the bytes received, not for the
// declared gigabyte.
func TestReadFrameDeclaredLengthReservesNothing(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := readFrame(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("readFrame(header only) = %v, want a truncation error", err)
	}
	if !isConnLost(err) {
		t.Fatalf("truncation %v does not read as a lost connection", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("reading a bare %d-byte header allocated %d bytes, want < 1 MiB", maxFrame, grew)
	}
}

// FuzzReadFrame: readFrame never panics on arbitrary input, and
// whatever writeFrame emits reads back as the same frame.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	if err := writeFrame(&seed, msgConfig, cellMeta{Index: 3}, []byte("blob")); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes(), byte(msgReady), "", []byte(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0x3f}, byte(0), "boom", []byte{1, 2, 3})
	f.Add([]byte{5, 0, 0, 0, 1, 9, 0, 0, 0}, byte(7), "x", []byte{})
	f.Fuzz(func(t *testing.T, data []byte, typ byte, errText string, blob []byte) {
		readFrame(bytes.NewReader(data))

		m := cellMeta{Index: len(data), Error: errText}
		var buf bytes.Buffer
		if err := writeFrame(&buf, typ, m, blob); err != nil {
			t.Fatal(err)
		}
		gotTyp, gotMeta, gotBlob, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		wantMeta, _ := json.Marshal(m)
		if gotTyp != typ || !bytes.Equal(gotMeta, wantMeta) || !bytes.Equal(gotBlob, blob) {
			t.Fatalf("round trip: got (%d, %q, %x), want (%d, %q, %x)", gotTyp, gotMeta, gotBlob, typ, wantMeta, blob)
		}
		if buf.Len() != 0 {
			t.Fatalf("round trip left %d unread bytes", buf.Len())
		}
	})
}

// TestFrameTypeValues pins every frame type's wire value. Peers of
// different builds pass the handshake whenever their manifests agree,
// so a renumbered type would be misread, not refused: the retired
// segment types 8 and 9 stay unused and shutdown stays 10.
func TestFrameTypeValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  byte
		want byte
	}{
		{"config", msgConfig, 1},
		{"ready", msgReady, 2},
		{"reject", msgReject, 3},
		{"cell", msgCell, 4},
		{"ckpt", msgCkpt, 5},
		{"done", msgDone, 6},
		{"fail", msgFail, 7},
		{"shutdown", msgShutdown, 10},
	} {
		if tc.got != tc.want {
			t.Errorf("msg %s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}
