package serve

import (
	"bytes"
	"encoding/json"
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

// FuzzSpecKey feeds arbitrary documents to ParseSpec. It must not panic, and
// a spec it accepts must marshal back to JSON that parses to a spec of the
// same job hash: what the hash keys is what the spec says, whatever its
// spelling. The committed corpus holds the TestExecutePayloadsPinned specs
// and README's example.
func FuzzSpecKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		spec, err := ParseSpec(doc)
		if err != nil {
			return
		}
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %s does not marshal: %v", doc, err)
		}
		back, err := ParseSpec(again)
		if err != nil {
			t.Fatalf("accepted spec %s marshals to %s, which fails: %v", doc, again, err)
		}
		if back.Hash() != spec.Hash() {
			t.Fatalf("spec %s hashes apart from its re-marshalled %s", doc, again)
		}
	})
}
