package core

// Tests for the KeyStore's transactional rollover staging and its safety
// under concurrent access (run with -race).

import (
	"sync"
	"sync/atomic"
	"testing"
)

const txnSeed = 0x5eed

func TestKeyStorePrepareInvisibleUntilCommit(t *testing.T) {
	ks := NewKeyStore(2, txnSeed)
	if err := ks.Prepare(KeyIndexLocal, 0xAAAA); err != nil {
		t.Fatal(err)
	}
	if !ks.Pending(KeyIndexLocal) {
		t.Fatal("Pending=false after Prepare")
	}

	// The staged key must not leak into Current or At: messages in flight
	// keep verifying under the established versions.
	key, ver, err := ks.Current(KeyIndexLocal)
	if err != nil || key != txnSeed || ver != 0 {
		t.Fatalf("Current=(%#x,%d,%v) during prepare, want seed at v0", key, ver, err)
	}
	if k, err := ks.At(KeyIndexLocal, 0); err != nil || k != txnSeed {
		t.Fatalf("At(0)=(%#x,%v) during prepare, want seed", k, err)
	}
	if k, err := ks.At(KeyIndexLocal, 1); err != nil || k == 0xAAAA {
		t.Fatalf("At(1)=(%#x,%v) — prepared key visible before commit", k, err)
	}

	newVer, err := ks.Commit(KeyIndexLocal)
	if err != nil {
		t.Fatal(err)
	}
	if newVer != 1 {
		t.Fatalf("Commit returned version %d, want 1", newVer)
	}
	if ks.Pending(KeyIndexLocal) {
		t.Fatal("Pending=true after Commit")
	}
	key, ver, err = ks.Current(KeyIndexLocal)
	if err != nil || key != 0xAAAA || ver != 1 {
		t.Fatalf("Current=(%#x,%d,%v) after commit, want prepared key at v1", key, ver, err)
	}
	// The two-version table still serves the pre-rollover key.
	if k, _ := ks.At(KeyIndexLocal, 0); k != txnSeed {
		t.Fatalf("At(0)=%#x after commit, want old seed retained", k)
	}
}

func TestKeyStoreCommitWithoutPrepare(t *testing.T) {
	ks := NewKeyStore(2, txnSeed)
	if _, err := ks.Commit(KeyIndexLocal); err == nil {
		t.Fatal("Commit with nothing prepared must fail")
	}
	// The failed commit must not disturb the slot.
	if key, ver, err := ks.Current(KeyIndexLocal); err != nil || key != txnSeed || ver != 0 {
		t.Fatalf("Current=(%#x,%d,%v) after failed commit", key, ver, err)
	}
}

func TestKeyStoreAbortDiscardsPrepared(t *testing.T) {
	ks := NewKeyStore(2, txnSeed)
	if err := ks.Prepare(KeyIndexLocal, 0xBBBB); err != nil {
		t.Fatal(err)
	}
	if err := ks.Abort(KeyIndexLocal); err != nil {
		t.Fatal(err)
	}
	if ks.Pending(KeyIndexLocal) {
		t.Fatal("Pending=true after Abort")
	}
	if _, err := ks.Commit(KeyIndexLocal); err == nil {
		t.Fatal("Commit after Abort must fail")
	}
	// Abort with nothing prepared is a safe no-op (resync calls it
	// unconditionally before inspecting switch state).
	if err := ks.Abort(KeyIndexLocal); err != nil {
		t.Fatal(err)
	}
	if key, ver, err := ks.Current(KeyIndexLocal); err != nil || key != txnSeed || ver != 0 {
		t.Fatalf("Current=(%#x,%d,%v) after abort, want untouched seed", key, ver, err)
	}
}

func TestKeyStoreInstallDiscardsPrepared(t *testing.T) {
	ks := NewKeyStore(2, txnSeed)
	if err := ks.Prepare(KeyIndexLocal, 0xCCCC); err != nil {
		t.Fatal(err)
	}
	// Install is the non-transactional path; it must clear the staging so
	// a later Commit can't resurrect a stale derived key.
	if _, err := ks.Install(KeyIndexLocal, 0xDDDD); err != nil {
		t.Fatal(err)
	}
	if ks.Pending(KeyIndexLocal) {
		t.Fatal("Pending=true after Install")
	}
	if _, err := ks.Commit(KeyIndexLocal); err == nil {
		t.Fatal("Commit after Install must fail (staged key discarded)")
	}
}

// TestKeyStoreOldVersionVerifiesMidRollover walks a full signed-message
// round trip across a rollover: a message signed under version N must keep
// verifying after version N+1 is installed, because the receiver selects
// the key by the message's version tag.
func TestKeyStoreOldVersionVerifiesMidRollover(t *testing.T) {
	cfg := DefaultConfig(2, DigestHalfSipHash)
	dig, err := cfg.Digester()
	if err != nil {
		t.Fatal(err)
	}
	ks := NewKeyStore(2, cfg.Seed)

	key, ver, err := ks.Current(KeyIndexLocal)
	if err != nil {
		t.Fatal(err)
	}
	m := &Message{Header: Header{HdrType: HdrRegister, MsgType: MsgReadReq, SeqNum: 9, KeyVersion: ver}}
	if err := m.Sign(dig, key); err != nil {
		t.Fatal(err)
	}

	// Rollover happens while m is in flight.
	if _, err := ks.Install(KeyIndexLocal, 0x1234); err != nil {
		t.Fatal(err)
	}

	old, err := ks.At(KeyIndexLocal, m.KeyVersion)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Verify(dig, old) {
		t.Fatal("message signed pre-rollover failed to verify via At")
	}

	// One more rollover reuses the old slot — now the in-flight message is
	// genuinely unverifiable, which is why the window is exactly one.
	if _, err := ks.Install(KeyIndexLocal, 0x5678); err != nil {
		t.Fatal(err)
	}
	gone, err := ks.At(KeyIndexLocal, m.KeyVersion)
	if err != nil {
		t.Fatal(err)
	}
	if m.Verify(dig, gone) {
		t.Fatal("message verified after its key slot was recycled twice")
	}
}

// TestKeyStoreConcurrentAccess hammers Install/Current/At/Prepare/Commit/
// Abort from many goroutines; run under -race this checks the store's
// locking. Readers assert they only ever observe values a writer actually
// stored.
func TestKeyStoreConcurrentAccess(t *testing.T) {
	const (
		goroutines = 8
		iterations = 500
	)
	ks := NewKeyStore(4, txnSeed)
	valid := func(k uint64) bool {
		// Writers only store txnSeed or values with the 0xK000 pattern below.
		return k == txnSeed || (k&0xFFFF0000) == 0xABCD0000
	}

	// bumps counts successful Install/Commit calls on slot 0. Slot 0
	// starts established at version 0 and each of them advances the uint8
	// version tag by one, wrapping past 255 by design.
	var bumps atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			slot := g % 3 // overlap slots across goroutines
			for i := 0; i < iterations; i++ {
				switch i % 6 {
				case 0:
					if _, err := ks.Install(slot, 0xABCD0000|uint64(g)<<8|uint64(i%256)); err != nil {
						t.Errorf("Install: %v", err)
						return
					}
					if slot == KeyIndexLocal {
						bumps.Add(1)
					}
				case 1:
					key, _, err := ks.Current(slot)
					if err == nil && !valid(key) {
						t.Errorf("Current returned torn value %#x", key)
						return
					}
				case 2:
					for v := uint8(0); v < 2; v++ {
						key, err := ks.At(slot, v)
						if err == nil && key != 0 && !valid(key) {
							t.Errorf("At returned torn value %#x", key)
							return
						}
					}
				case 3:
					if err := ks.Prepare(slot, 0xABCD0000|uint64(g)); err != nil {
						t.Errorf("Prepare: %v", err)
						return
					}
				case 4:
					// Commit may legitimately race with another goroutine's
					// Install/Abort clearing the staging; only the error path
					// is asserted elsewhere.
					if _, err := ks.Commit(slot); err == nil && slot == KeyIndexLocal {
						bumps.Add(1)
					}
				case 5:
					if err := ks.Abort(slot); err != nil {
						t.Errorf("Abort: %v", err)
						return
					}
				}
				ks.Pending(slot)
				ks.Established(slot)
			}
		}(g)
	}
	wg.Wait()
	_, version, err := ks.Current(KeyIndexLocal)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint8(bumps.Load()); version != want {
		t.Fatalf("slot 0 version = %d after %d Install/Commit calls, want %d", version, bumps.Load(), want)
	}
}
