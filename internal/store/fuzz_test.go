package store_test

import (
	"bytes"
	"testing"

	"repro/internal/store"
)

// FuzzDecodeFrame fuzzes the frame decoder every disk and remote read goes
// through. It must report !ok, or a payload whose EncodeFrame is the input
// again: the frame is canonical, so nothing but the one encoding of a
// payload decodes to it. The committed corpus holds a real image-artifact
// frame and its truncated, bad-magic, wrong-length and bad-checksum
// variants.
func FuzzDecodeFrame(f *testing.F) {
	good := store.EncodeFrame([]byte("good bytes"))
	f.Add(good)
	f.Add(store.EncodeFrame(nil))
	f.Add(append(append([]byte(nil), good...), 0xcc))
	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, ok := store.DecodeFrame(raw)
		if !ok {
			return
		}
		if !bytes.Equal(store.EncodeFrame(payload), raw) {
			t.Fatal("decoded payload re-frames to different bytes")
		}
	})
}
