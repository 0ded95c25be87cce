package db

import (
	"fmt"
	"io"
	"os"
)

// WriteFileAtomic is the writer of every artifact that replaces a file a
// reader may already trust under the same name: databases (Save) and
// out-of-core manifests. Spill generations are not among them: each is
// written once under a fresh name that no manifest names before it is
// synced. WriteFileAtomic writes a file so that a crash at any point
// leaves either the complete new contents or the prior file untouched:
// the data goes to path+".tmp" and only then is renamed over path. A
// durable write fsyncs the data before the rename — a rename alone does
// not flush the page cache, so a crash after an unsynced rename can
// persist an empty or truncated file over a valid one. The rename itself
// is durable only once the directory is synced (SyncDir). The temporary
// file is removed on every error path.
func WriteFileAtomic(path string, durable bool, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil && durable {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// SyncDir fsyncs directory dir, making the renames and removals done in
// it so far durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("db: syncing directory: %w", err)
	}
	return nil
}
