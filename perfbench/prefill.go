package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"

	"github.com/cnfet/yieldlab/internal/experiments"
	"github.com/cnfet/yieldlab/internal/renewal"
	"github.com/cnfet/yieldlab/internal/server"
	"github.com/cnfet/yieldlab/internal/sweepstore"
)

// prefillLaws is how many swept laws a cold-sweep store holds before its
// server starts: the server's default cache bound. The server warms its
// cache from them, so from the first timed operation every unseen law
// evicts one and every checkpoint persists a full cache. A fresh store
// would instead spend the whole timed phase filling the cache, with each
// operation dearer than the last.
const prefillLaws = server.DefaultCacheEntries

// prefillPitch is the j-th prefill law's pitch mean, outside the range the
// timed stream draws from (see coldPitch), so no timed law is pre-swept.
func prefillPitch(j int) float64 { return 4.5 + 0.005*float64(j) }

// ensurePrefill returns the directory holding the prefill records, building
// it on first use. The records depend on no seed, but their format, count
// and contents depend on the program's code, so the directory is keyed by
// the digest of the checkout's sources: two versions of the program never
// share one.
func ensurePrefill(out, digest string) (string, error) {
	dir := filepath.Join(out, "prefill-"+digest)
	done := dir + ".complete"
	if _, err := os.Stat(done); err == nil {
		return dir, nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	store, err := sweepstore.Open(dir)
	if err != nil {
		return "", err
	}
	cache := renewal.NewSweepCache()
	params := experiments.DefaultParams()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := g; j < prefillLaws; j += len(errs) {
				law, err := pitchLaw(prefillPitch(j))
				if err == nil {
					var m *renewal.Model
					m, err = cache.Model(law, renewal.WithStep(params.GridStepNM), renewal.WithMaxWidth(params.MaxWidthNM))
					if err == nil {
						_, err = m.CountPMF(params.MaxWidthNM / 2)
					}
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return "", fmt.Errorf("prefill sweep: %w", err)
		}
	}
	if n, err := sweepstore.PersistCache(store, cache); err != nil || n != prefillLaws {
		return "", fmt.Errorf("prefill store: wrote %d of %d records: %v", n, prefillLaws, err)
	}
	// Flush the half-gigabyte just written, so its writeback does not
	// overlap the first timed phase.
	syscall.Sync()
	return dir, os.WriteFile(done, nil, 0o644)
}

// seedStore hard-links the prefill records into a fresh store directory.
// The store replaces files by rename and never writes in place, so the
// shared records stay intact.
func seedStore(prefill, storeDir string) error {
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(prefill)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Type().IsRegular() && !strings.HasPrefix(e.Name(), ".") {
			if err := os.Link(filepath.Join(prefill, e.Name()), filepath.Join(storeDir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkPrefilled fails unless a server's stats show its cache warmed from
// every prefill record with none refused: a store whose records the
// program cannot read would leave cold-sweep on an empty cache, a
// different regime that must not pass as the workload.
func checkPrefilled(st server.StatsJSON) error {
	if st.Store == nil {
		return errors.New("prefilled server reports no store")
	}
	if st.Store.Rejects != 0 || st.Store.Quarantined != 0 || st.Store.Loads < prefillLaws || st.SweepCache.Entries != prefillLaws {
		return fmt.Errorf("prefilled store not loaded whole: loads=%d rejects=%d quarantined=%d cache entries=%d, want %d entries",
			st.Store.Loads, st.Store.Rejects, st.Store.Quarantined, st.SweepCache.Entries, prefillLaws)
	}
	return nil
}
