//! Byte sources for chunked ingestion.
//!
//! A [`ByteSource`] abstracts where the stream's bytes live so the
//! chunk workers stay oblivious:
//!
//! * `Mem` — an owned in-memory buffer (the `read_csv_str_chunked`
//!   path); chunks are zero-copy subslices.
//! * `File` — positional reads (`pread`) into per-chunk scratch
//!   buffers; no shared cursor, so parallel workers never contend, and
//!   resident memory stays bounded by chunk × workers.
//!
//! Every chunk access goes through [`ByteSource::with_chunk`], which
//! borrows when it can and reads when it must.

use std::fs::File;
use std::path::Path;

use eda_dataframe::{Error, Result};

/// Where the stream's bytes come from. Shared across worker threads via
/// `Arc`; all access is positional and immutable.
pub enum ByteSource {
    /// Owned in-memory bytes.
    Mem(Vec<u8>),
    /// An open file read positionally per chunk.
    File(File, u64),
}

impl ByteSource {
    /// Open `path` for positional reads.
    pub fn open(path: &Path) -> Result<ByteSource> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok(ByteSource::File(file, len))
    }

    /// Wrap owned bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> ByteSource {
        ByteSource::Mem(bytes)
    }

    /// Total stream length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            ByteSource::Mem(b) => b.len() as u64,
            ByteSource::File(_, len) => *len,
        }
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run `f` over the chunk `[start, start + len)`, borrowing the
    /// bytes for `Mem` and reading into a scratch buffer for `File`. The
    /// scratch allocation is the only per-chunk cost of the file path.
    pub fn with_chunk<T>(&self, start: u64, len: usize, f: impl FnOnce(&[u8]) -> T) -> Result<T> {
        let out_of_bounds = || {
            Error::Io(format!(
                "chunk [{start}, {start}+{len}) out of bounds for source of {} bytes",
                self.len()
            ))
        };
        let end = start.checked_add(len as u64).filter(|&e| e <= self.len());
        let end = end.ok_or_else(out_of_bounds)?;
        match self {
            ByteSource::Mem(b) => {
                b.get(start as usize..end as usize).map(f).ok_or_else(out_of_bounds)
            }
            ByteSource::File(file, _) => {
                let mut buf = vec![0u8; len];
                read_exact_at(file, &mut buf, start)?;
                Ok(f(&buf))
            }
        }
    }

    /// Stream the whole source through `f` in blocks of `block_bytes`
    /// (the boundary-scan pass). `Mem` hands out subslices; the file
    /// path reuses one scratch buffer, keeping the pass O(block) in
    /// memory.
    pub fn scan_blocks(&self, block_bytes: usize, mut f: impl FnMut(&[u8])) -> Result<()> {
        let block_bytes = block_bytes.max(4096);
        match self {
            ByteSource::Mem(b) => b.chunks(block_bytes).for_each(f),
            ByteSource::File(file, len) => {
                let mut buf = vec![0u8; block_bytes];
                let mut pos = 0u64;
                while pos < *len {
                    let n = block_bytes.min((*len - pos) as usize);
                    // n <= block_bytes == buf.len(), so the block is always there.
                    let Some(block) = buf.get_mut(..n) else { break };
                    read_exact_at(file, block, pos)?;
                    f(block);
                    pos += n as u64;
                }
            }
        }
        Ok(())
    }
}

/// Positional exact read. On unix this is `pread` (no shared cursor —
/// safe to call concurrently from many workers on one `File`); elsewhere
/// it clones the descriptor and seeks the clone, preserving the
/// no-shared-cursor property at the cost of a dup per chunk.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset).map_err(Error::from)
}

#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> Result<()> {
    use std::io::{Read, Seek};
    let mut dup = file.try_clone()?;
    dup.seek(std::io::SeekFrom::Start(offset))?;
    dup.read_exact(buf).map_err(Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("eda_io_source_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut f = File::create(&path).unwrap();
        f.write_all(contents).unwrap();
        path
    }

    #[test]
    fn mem_and_file_agree() {
        let data = b"0123456789abcdef".to_vec();
        let path = temp_file("agree.bin", &data);
        let mem = ByteSource::from_bytes(data.clone());
        let file = ByteSource::open(&path).unwrap();
        assert_eq!(mem.len(), file.len());
        for (start, len) in [(0u64, 4usize), (4, 8), (12, 4), (0, 16), (16, 0)] {
            let a = mem.with_chunk(start, len, |b| b.to_vec()).unwrap();
            let b = file.with_chunk(start, len, |b| b.to_vec()).unwrap();
            assert_eq!(a, b, "chunk ({start}, {len})");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_bounds_chunk_is_an_error() {
        let data = vec![1, 2, 3];
        let path = temp_file("bounds.bin", &data);
        for src in [ByteSource::from_bytes(data), ByteSource::open(&path).unwrap()] {
            assert!(src.with_chunk(2, 2, |_| ()).is_err());
            assert!(src.with_chunk(u64::MAX, 2, |_| ()).is_err());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scan_blocks_covers_everything() {
        let data: Vec<u8> = (0..100u8).collect();
        let path = temp_file("scan.bin", &data);
        for src in [ByteSource::from_bytes(data.clone()), ByteSource::open(&path).unwrap()] {
            let mut seen = Vec::new();
            src.scan_blocks(4096, |b| seen.extend_from_slice(b)).unwrap();
            assert_eq!(seen, data);
        }
        std::fs::remove_file(&path).ok();
    }
}
