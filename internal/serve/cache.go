package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// cache is the result cache: an in-memory LRU over job-hash keys with
// optional write-through disk spill. Because the engine is deterministic,
// a hash hit can return the stored payload verbatim — byte-identical to
// re-running the job — so the cache is an exact substitute for simulation,
// not an approximation.
//
// With a spill directory configured every payload is also written to
// <dir>/<hash>.spill (hashes are hex, so the name is filesystem-safe); an
// entry evicted from memory is then still served from disk, and a restarted
// daemon warms up from the artifacts of its previous life. A spill file is
// framed (see spillFrame) and written to a temporary name, then renamed into
// place, so a reader sees a whole entry or none; a file that fails its frame
// (cut short, corrupted) is a miss, removed and counted in rejects.
type cache struct {
	mu        sync.Mutex
	dir       string
	mem       *lru[string, []byte] // job hash -> payload
	hits      int64
	misses    int64
	evictions int64
	spills    int64
	rejects   int64
}

// A spill file is a 16-byte header, then the payload: the magic, the
// payload's length (uint64, little-endian) and its CRC-32C (uint32,
// little-endian).
var spillMagic = [4]byte{'m', 'l', 's', '1'}

const spillHeader = 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// spillFrame returns payload framed for a spill file.
func spillFrame(payload []byte) []byte {
	buf := make([]byte, spillHeader, spillHeader+len(payload))
	copy(buf, spillMagic[:])
	binary.LittleEndian.PutUint64(buf[4:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(buf[12:], crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// spillPayload returns the payload of a spill file's bytes, or false when
// they are not one whole, intact frame.
func spillPayload(file []byte) ([]byte, bool) {
	if len(file) < spillHeader || !bytes.Equal(file[:4], spillMagic[:]) {
		return nil, false
	}
	payload := file[spillHeader:]
	if binary.LittleEndian.Uint64(file[4:]) != uint64(len(payload)) ||
		binary.LittleEndian.Uint32(file[12:]) != crc32.Checksum(payload, castagnoli) {
		return nil, false
	}
	return payload, true
}

// lru is a least-recently-used map of at most max entries: the result
// cache's memory tier and the spec memo. Its owner serializes access.
type lru[K comparable, V any] struct {
	max   int
	items map[K]*list.Element
	order *list.List // of *lruEntry[K, V]; front = most recently used
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](max int) *lru[K, V] {
	return &lru[K, V]{max: max, items: make(map[K]*list.Element), order: list.New()}
}

// Get returns the value under k and marks it most recently used.
func (l *lru[K, V]) Get(k K) (V, bool) {
	el, ok := l.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// Put stores v under k as the most recently used entry and returns how many
// of the least recently used it evicted to stay within max.
func (l *lru[K, V]) Put(k K, v V) (evicted int) {
	if el, ok := l.items[k]; ok {
		l.order.MoveToFront(el)
		el.Value.(*lruEntry[K, V]).val = v
		return 0
	}
	l.items[k] = l.order.PushFront(&lruEntry[K, V]{key: k, val: v})
	for len(l.items) > l.max {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		delete(l.items, oldest.Value.(*lruEntry[K, V]).key)
		evicted++
	}
	return evicted
}

// Len returns the number of entries held.
func (l *lru[K, V]) Len() int { return len(l.items) }

func newCache(maxEntries int, dir string) *cache {
	return &cache{dir: dir, mem: newLRU[string, []byte](maxEntries)}
}

// Get returns the payload cached under hash. Memory first, then the spill
// directory (promoting the entry back into memory).
func (c *cache) Get(hash string) ([]byte, bool) {
	c.mu.Lock()
	if payload, ok := c.mem.Get(hash); ok {
		c.hits++
		c.mu.Unlock()
		return payload, true
	}
	c.mu.Unlock()

	if c.dir != "" {
		if file, err := os.ReadFile(c.spillPath(hash)); err == nil {
			if payload, ok := spillPayload(file); ok {
				c.mu.Lock()
				c.hits++
				c.evictions += int64(c.mem.Put(hash, payload))
				c.mu.Unlock()
				return payload, true
			}
			os.Remove(c.spillPath(hash))
			c.mu.Lock()
			c.rejects++
			c.mu.Unlock()
		}
	}

	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// Put stores payload under hash and spills it to disk when configured.
// Spill failures are ignored: the disk copy is an optimization, the
// in-memory entry is already live.
func (c *cache) Put(hash string, payload []byte) {
	c.mu.Lock()
	c.evictions += int64(c.mem.Put(hash, payload))
	c.mu.Unlock()
	if c.dir != "" && c.spill(hash, payload) == nil {
		c.mu.Lock()
		c.spills++
		c.mu.Unlock()
	}
}

// spill writes payload's frame to a temporary file in the spill directory,
// syncs it and renames it over hash's spill file.
func (c *cache) spill(hash string, payload []byte) error {
	f, err := os.CreateTemp(c.dir, hash+".tmp*")
	if err != nil {
		return err
	}
	_, err = f.Write(spillFrame(payload))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), c.spillPath(hash))
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// Stats returns cumulative hit/miss counters and the live entry count.
func (c *cache) Stats() (hits, misses int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.mem.Len()
}

// Counters returns every cumulative counter — the /metrics bridge. Evictions
// count in-memory LRU removals (a disk spill of the same entry may still
// serve it later); spills count successful write-throughs to the spill dir;
// rejects count spill files removed for failing their frame.
func (c *cache) Counters() (hits, misses, evictions, spills, rejects int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.spills, c.rejects
}

func (c *cache) spillPath(hash string) string {
	return filepath.Join(c.dir, hash+".spill")
}

// specMemo remembers the spec each accepted request body parsed to, and that
// spec's job hash, keyed by the body's SHA-256: a resubmitted body is answered
// without being decoded, validated or hashed again. It holds the most recently
// submitted Config.CacheEntries bodies. A body ParseSpec rejects is never
// stored, so it is rejected the same way every time. Every job minted from one
// body shares its *Spec, which nothing writes after ParseSpec.
type specMemo struct {
	mu  sync.Mutex
	lru *lru[[sha256.Size]byte, parsedSpec]
}

type parsedSpec struct {
	spec *Spec
	hash string
}

func newSpecMemo(maxEntries int) *specMemo {
	return &specMemo{lru: newLRU[[sha256.Size]byte, parsedSpec](maxEntries)}
}

// parse returns ParseSpec(body) and its Hash, from the memo when body was
// accepted before.
func (m *specMemo) parse(body []byte) (*Spec, string, error) {
	key := sha256.Sum256(body)
	m.mu.Lock()
	p, ok := m.lru.Get(key)
	m.mu.Unlock()
	if ok {
		return p.spec, p.hash, nil
	}
	spec, err := ParseSpec(body)
	if err != nil {
		return nil, "", err
	}
	p = parsedSpec{spec: spec, hash: spec.Hash()}
	m.mu.Lock()
	if first, ok := m.lru.Get(key); ok {
		p = first // a concurrent submission of the same body stored it first
	} else {
		m.lru.Put(key, p)
	}
	m.mu.Unlock()
	return p.spec, p.hash, nil
}
