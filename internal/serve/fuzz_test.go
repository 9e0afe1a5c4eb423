package serve

import (
	"bytes"
	"testing"
)

// FuzzSpillEntry feeds arbitrary file contents to spillPayload, the check a
// spill file passes before the cache serves it. It must not panic, and a
// payload it accepts must frame back to exactly the file it came from, so it
// never returns bytes its header and checksum did not cover. The committed
// corpus holds an intact frame and its damaged forms: an empty file, a cut
// header, a cut payload, a flipped payload byte, a wrong magic and a length
// field that lies.
func FuzzSpillEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, file []byte) {
		payload, ok := spillPayload(file)
		if ok && !bytes.Equal(spillFrame(payload), file) {
			t.Fatalf("accepted payload %q frames to other bytes than the file %q", payload, file)
		}
	})
}
