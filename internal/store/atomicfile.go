package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// PublishFile writes an immutable file with the same durable sequence the
// generation store uses for snapshots: temp file in the destination
// directory, payload via write, fsync, atomic rename into place, directory
// fsync. Unlike Generations there is no rotation — the destination must be
// a fresh name (cold-tier segments are immutable and content-unique) — and
// no failpoints: callers inject their own sites around or inside write.
// On any failure the temp file is removed; a crash can still strand one,
// which the caller's own sweep reclaims.
func PublishFile(path string, write func(w io.Writer) (int64, error)) (int64, error) {
	dir := filepath.Dir(path)
	base := filepath.Base(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-")
	if err != nil {
		return 0, fmt.Errorf("store: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) (int64, error) {
		tmp.Close()
		os.Remove(tmpName)
		return 0, err
	}
	n, err := write(tmp)
	if err != nil {
		return fail(fmt.Errorf("store: writing %s: %w", base, err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("store: syncing %s: %w", base, err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: closing %s: %w", base, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: publishing %s: %w", base, err)
	}
	if d, err := os.Open(dir); err == nil {
		serr := d.Sync()
		d.Close()
		if serr != nil {
			return n, fmt.Errorf("store: syncing directory for %s: %w", base, serr)
		}
	}
	return n, nil
}
