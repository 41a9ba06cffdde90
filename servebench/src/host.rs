//! The run's surroundings: building `swsd`, the scratch directory inside
//! the checkout, and what the host and filesystem are.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Build `swsd` from the checkout at `root` in release mode and return
/// its path. Cargo's target directory is `CARGO_TARGET_DIR` when set.
pub fn build_swsd(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .current_dir(root)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "sws-designer", "--bin", "swsd"])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building swsd failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let swsd = root.join(target).join("release").join("swsd");
    if swsd.is_file() {
        Ok(swsd)
    } else {
        Err(format!("no swsd binary at {}", swsd.display()))
    }
}

/// A scratch directory, removed with everything in it when dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(path: PathBuf) -> io::Result<WorkDir> {
        if path.exists() {
            fs::remove_dir_all(&path)?;
        }
        fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Remove the shared parent too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

/// Copy a directory tree.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Every file under `dir` with its contents, sorted by path.
pub fn dir_files(dir: &Path) -> io::Result<Vec<(PathBuf, Vec<u8>)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            out.extend(dir_files(&entry.path())?);
        } else {
            out.push((entry.path(), fs::read(entry.path())?));
        }
    }
    out.sort();
    Ok(out)
}

/// Total bytes of the files under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    Ok(dir_files(dir)?.iter().map(|(_, b)| b.len() as u64).sum())
}

/// Bytes written between two listings of one directory: new files and
/// rewritten files count whole, a file that only grew counts its growth.
pub fn bytes_written(before: &[(PathBuf, Vec<u8>)], after: &[(PathBuf, Vec<u8>)]) -> u64 {
    after
        .iter()
        .map(
            |(path, data)| match before.iter().find(|(p, _)| p == path) {
                Some((_, old)) if old == data => 0,
                Some((_, old)) if data.starts_with(old) => (data.len() - old.len()) as u64,
                _ => data.len() as u64,
            },
        )
        .sum()
}

/// The filesystem type and mount point `path` sits on, from
/// `/proc/self/mountinfo` (the longest mount point that prefixes it).
pub fn filesystem_of(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(info) = fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    info.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let mount = *fields.get(4)?;
            let sep = fields.iter().position(|f| *f == "-")?;
            let fstype = *fields.get(sep + 1)?;
            path.starts_with(mount)
                .then(|| (mount.len(), format!("{fstype} (mounted at {mount})")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// CPUs this process may run on.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
