package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
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

// FuzzSpecKey feeds arbitrary documents to ParseSpec and to the spec memo.
// Neither may panic. A spec ParseSpec accepts must marshal back to JSON that
// parses to a spec of the same job hash: what the hash keys is what the spec
// says, whatever its spelling. The memo must answer such a document twice
// with one *Spec, equal to ParseSpec's, and ParseSpec's hash; a document
// ParseSpec rejects it must reject twice with ParseSpec's error, storing
// nothing. The committed corpus holds the TestExecutePayloadsPinned specs and
// README's example.
func FuzzSpecKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		memo := newSpecMemo(4)
		first, hash1, err1 := memo.parse(doc)
		second, hash2, err2 := memo.parse(doc)
		spec, err := ParseSpec(doc)
		if err != nil {
			for _, e := range []error{err1, err2} {
				if e == nil || e.Error() != err.Error() {
					t.Fatalf("ParseSpec rejects %q with %v, the memo with %v", doc, err, e)
				}
			}
			if n := memo.lru.Len(); n != 0 {
				t.Fatalf("rejected document %q left %d memo entries", doc, n)
			}
			return
		}
		if err1 != nil || err2 != nil {
			t.Fatalf("ParseSpec accepts %q, the memo rejects it: %v, %v", doc, err1, err2)
		}
		if first != second || !reflect.DeepEqual(first, spec) {
			t.Fatalf("the memo answers %q with %+v and %+v, ParseSpec with %+v", doc, first, second, spec)
		}
		if hash1 != spec.Hash() || hash2 != hash1 {
			t.Fatalf("the memo hashes %q as %s and %s, Hash as %s", doc, hash1, hash2, spec.Hash())
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
