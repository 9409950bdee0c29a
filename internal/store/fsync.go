package store

import (
	"errors"
	"os"
	"syscall"
)

// FsyncDir makes a directory entry durable: after creating, renaming,
// or removing a file, the change is only crash-safe once the parent
// directory itself has been fsynced — on common filesystems a rename
// can otherwise vanish on power loss even though the file's own bytes
// were synced. Every commit-by-rename site (shard manifests and shard
// stores, ingest store creation and compaction) calls this after the
// rename.
//
// Filesystems that do not support fsync on directories report EINVAL
// or ENOTSUP; those are ignored — there is nothing more a process can
// do there, and failing the commit over it would break platforms that
// never needed the sync.
func FsyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}
