//go:build !linux

package storage

import "os"

// datasync is a full sync where fdatasync(2) is not to hand.
func datasync(f *os.File) error { return f.Sync() }
