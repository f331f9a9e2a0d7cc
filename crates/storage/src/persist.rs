//! Heap-file persistence: serialize partitions to real files so generated
//! workloads can be saved once and reloaded across runs (deterministic
//! seeds make regeneration possible, but paper-scale relations take time
//! to generate; a downstream user will want both options).
//!
//! Format (little-endian throughout):
//!
//! ```text
//! file   := magic "ADAGHF01"  page_bytes:u32  page_count:u32  page*
//! page   := tuple_count:u32  byte_len:u32  bytes
//! ```
//!
//! Loading re-validates every page byte-for-byte via
//! [`crate::Page::from_raw`], so a truncated or corrupted file fails
//! loudly instead of feeding garbage tuples to the engine.

use crate::error::StorageError;
use crate::heapfile::HeapFile;
use crate::page::Page;
use adaptagg_model::ModelError;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"ADAGHF01";

/// Serialize a heap file into a byte buffer.
pub fn to_bytes(file: &HeapFile) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + file.bytes_used() + 8 * file.page_count());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(file.page_bytes() as u32).to_le_bytes());
    out.extend_from_slice(&(file.page_count() as u32).to_le_bytes());
    let mut payload = Vec::new();
    for page in file.pages() {
        payload.clear();
        page.encode_into(&mut payload);
        out.extend_from_slice(&(page.tuple_count() as u32).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

/// Deserialize a heap file from bytes (inverse of [`to_bytes`]).
pub fn from_bytes(bytes: &[u8]) -> Result<HeapFile, StorageError> {
    let corrupt = |what: &'static str| StorageError::Model(ModelError::Corrupt(what));
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], StorageError> {
        let end = pos
            .checked_add(n)
            .filter(|&e| e <= bytes.len())
            .ok_or(StorageError::Model(ModelError::Corrupt(
                "truncated heap-file image",
            )))?;
        let s = &bytes[*pos..end];
        *pos = end;
        Ok(s)
    };
    let read_u32 = |pos: &mut usize| -> Result<u32, StorageError> {
        let b: [u8; 4] = take(pos, 4)?.try_into().expect("4 bytes");
        Ok(u32::from_le_bytes(b))
    };

    if take(&mut pos, 8)? != MAGIC {
        return Err(corrupt("bad magic (not a heap-file image)"));
    }
    let page_bytes = read_u32(&mut pos)? as usize;
    let page_count = read_u32(&mut pos)? as usize;

    let mut pages = Vec::with_capacity(page_count);
    for _ in 0..page_count {
        let tuples = read_u32(&mut pos)?;
        let len = read_u32(&mut pos)? as usize;
        let data = take(&mut pos, len)?.to_vec();
        pages.push(Page::from_raw(page_bytes, data, tuples)?);
    }
    if pos != bytes.len() {
        return Err(corrupt("trailing bytes after heap-file image"));
    }
    HeapFile::from_pages(page_bytes, pages)
}

/// Save a heap file to a filesystem path.
pub fn save(file: &HeapFile, path: impl AsRef<Path>) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(&to_bytes(file))?;
    f.flush()
}

/// Load a heap file from a filesystem path.
pub fn load(path: impl AsRef<Path>) -> std::io::Result<HeapFile> {
    let mut buf = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut buf)?;
    from_bytes(&buf).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::Value;

    fn sample(n: i64) -> HeapFile {
        let tuples: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::Int(i), Value::Str(format!("row{i}").into())])
            .collect();
        HeapFile::from_tuples(128, tuples.iter().map(|t| t.as_slice())).unwrap()
    }

    #[test]
    fn round_trips_bytes() {
        let f = sample(100);
        let bytes = to_bytes(&f);
        let g = from_bytes(&bytes).unwrap();
        assert_eq!(g.page_bytes(), 128);
        assert_eq!(g.tuple_count(), 100);
        let a: Vec<_> = f.iter_untracked().map(|t| t.unwrap()).collect();
        let b: Vec<_> = g.iter_untracked().map(|t| t.unwrap()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_file_round_trips() {
        let f = HeapFile::new(4096);
        let g = from_bytes(&to_bytes(&f)).unwrap();
        assert_eq!(g.tuple_count(), 0);
        assert_eq!(g.page_count(), 0);
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let bytes = to_bytes(&sample(10));
        // Every strict prefix must fail (never panic, never succeed).
        for cut in 0..bytes.len() {
            assert!(
                from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn bad_magic_and_trailing_garbage_are_detected() {
        let mut bytes = to_bytes(&sample(3));
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(from_bytes(&wrong).is_err());
        bytes.push(0);
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn corrupted_page_payload_is_detected() {
        let mut bytes = to_bytes(&sample(5));
        // Flip a byte inside the first page's tuple data (after the two
        // headers: 16 file bytes + 8 page-header bytes).
        let target = 16 + 8 + 2;
        bytes[target] = 0xEE;
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn save_and_load_via_filesystem() {
        let dir = std::env::temp_dir().join("adaptagg_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("part0.ahf");
        let f = sample(42);
        save(&f, &path).unwrap();
        let g = load(&path).unwrap();
        assert_eq!(g.tuple_count(), 42);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_of_missing_file_is_io_error() {
        assert!(load("/nonexistent/nope.ahf").is_err());
    }

    #[test]
    fn appending_after_load_continues_the_last_page() {
        let f = sample(5);
        let mut g = from_bytes(&to_bytes(&f)).unwrap();
        g.append(&[Value::Int(99), Value::Str("x".into())]).unwrap();
        assert_eq!(g.tuple_count(), 6);
        let last: Vec<_> = g.iter_untracked().map(|t| t.unwrap()).collect();
        assert_eq!(last[5][0], Value::Int(99));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary bytes never panic the loader.
        #[test]
        fn prop_loader_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = from_bytes(&bytes);
        }
    }
}
