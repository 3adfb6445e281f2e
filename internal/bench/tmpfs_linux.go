package bench

import "syscall"

// onTmpfs reports whether dir sits on tmpfs, where fsync is free and
// every durable latency reads better than a device would give.
func onTmpfs(dir string) bool {
	const tmpfsMagic = 0x01021994
	var st syscall.Statfs_t
	return syscall.Statfs(dir, &st) == nil && st.Type == tmpfsMagic
}
