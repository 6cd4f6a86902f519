//! Equal chunks: how the index structures hold their arrays.
//!
//! Under glibc, a multi-MB array that grows by reallocation is served from
//! the heap once a similar one has been freed, and the hole it leaves fits
//! no larger successor, so resident memory only grows while a balancer
//! moves keys back and forth.  Both index structures therefore keep their
//! arrays as lists of chunks of one byte size, [`CHUNK_BYTES`]: growth adds
//! a chunk and never copies one, and a chunk one partition frees is exactly
//! what the next partition's growth asks `malloc` for.  Chunks are plain
//! `malloc` sizes with the allocator's own alignment; an over-aligned chunk
//! (`posix_memalign`) asks for more than a freed one holds and defeats the
//! reuse.

use std::ops::{Index, IndexMut, Range};

/// Bytes of one chunk: 1024 hash-table blocks of 64 buckets, 1.06 MiB.
pub const CHUNK_BYTES: usize = 1024 * 1088;

/// The one compaction rule of both index structures: a donor holding `held` bytes is
/// rebuilt once the `slack` a rebuild frees reaches a chunk or half of it, the lesser.
pub(crate) fn compaction_due(slack: u64, held: u64) -> bool {
    slack >= (CHUNK_BYTES as u64).min(held / 2)
}

/// An append-only array of `T` in chunks of [`CHUNK_BYTES`], indexed like
/// a slice.  Only the first chunk grows, by doubling up to the full chunk
/// size, so that an array smaller than a chunk (a small partition's tree,
/// or the inner nodes of most) costs what it holds.  Every later chunk is
/// allocated whole when the array first reaches it and is filled in place:
/// past its first chunk no element ever moves, and the unwritten tail of
/// the last chunk costs address space, not resident memory.  A chunk holds
/// a power of two of elements, 1 MiB of them, so that an index splits by a
/// shift and a mask; the last 64 KiB of each allocation are never written.
/// A run of elements (a tree's leaf header or value block) may cross from
/// one chunk into the next, so the array resolves single indexes only.
pub(crate) struct ChunkVec<T> {
    chunks: Vec<Vec<T>>,
    len: usize,
}

impl<T: Copy> ChunkVec<T> {
    /// Elements a chunk's allocation has room for.
    const CAPACITY: usize = CHUNK_BYTES / std::mem::size_of::<T>();
    /// Elements per chunk: the largest power of two that fits.
    const PER_CHUNK: usize = 1 << Self::CAPACITY.ilog2();

    pub(crate) const fn new() -> Self {
        ChunkVec {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Elements written so far: the array's logical length.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Chunk and offset of element `i`.
    #[inline]
    fn split(i: usize) -> (usize, usize) {
        (i / Self::PER_CHUNK, i % Self::PER_CHUNK)
    }

    /// Element `i`, if the array holds it.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        let (chunk, at) = Self::split(i);
        self.chunks.get(chunk)?.get(at)
    }

    /// Elements `start..start + len` as one slice, unless a chunk boundary
    /// falls inside them.
    #[inline]
    pub(crate) fn contiguous(&self, start: usize, len: usize) -> Option<&[T]> {
        let (chunk, at) = Self::split(start);
        self.chunks.get(chunk)?.get(at..at + len)
    }

    /// [`ChunkVec::contiguous`], writable.
    #[inline]
    pub(crate) fn contiguous_mut(&mut self, start: usize, len: usize) -> Option<&mut [T]> {
        let (chunk, at) = Self::split(start);
        self.chunks.get_mut(chunk)?.get_mut(at..at + len)
    }

    /// Append `n` copies of `fill`, adding chunks as the array reaches
    /// the end of its last one.
    #[inline]
    pub(crate) fn grow(&mut self, n: usize, fill: T) {
        match self.chunks.last_mut() {
            // ALLOC-OK: within the last chunk's capacity and its elements.
            Some(last) if last.len() + n <= last.capacity().min(Self::PER_CHUNK) => {
                last.resize(last.len() + n, fill);
                self.len += n;
            }
            _ => self.grow_chunks(n, fill),
        }
    }

    /// [`ChunkVec::grow`] past the room of the last chunk.
    // ALLOC-OK(fn): a chunk per CHUNK_BYTES of growth, and a pointer in the
    // chunk list with it; the first chunk doubles until it is one.
    #[cold]
    fn grow_chunks(&mut self, mut n: usize, fill: T) {
        while n > 0 {
            if self.len == self.chunks.len() * Self::PER_CHUNK {
                self.chunks.push(Vec::new());
            }
            let first = self.chunks.len() == 1;
            // BOUNDS: the branch above pushed a chunk if none had room.
            let last = self.chunks.last_mut().expect("a chunk was just ensured");
            if last.len() + n > last.capacity() {
                let want = (2 * last.capacity()).max(last.len() + n);
                let room = match first && want < Self::PER_CHUNK {
                    true => want,
                    false => Self::CAPACITY,
                };
                last.reserve_exact(room - last.len());
            }
            let take = n.min(Self::PER_CHUNK - last.len());
            last.resize(last.len() + take, fill);
            self.len += take;
            n -= take;
        }
    }

    /// `slice::copy_within`: copy `src` to start at `dest`, the two ranges
    /// possibly overlapping.  One `memmove` when both lie inside one
    /// chunk, else element by element in the direction that reads every
    /// element before it is overwritten.
    pub(crate) fn copy_within(&mut self, src: Range<usize>, dest: usize) {
        let n = src.len();
        let ((from, at), (to, into)) = (Self::split(src.start), Self::split(dest));
        if from == to && at.max(into) + n <= Self::PER_CHUNK {
            // BOUNDS: callers pass ranges inside the array; the slice
            // method checks them against the chunk's length.
            self.chunks[from].copy_within(at..at + n, into);
        } else if dest < src.start {
            for i in 0..n {
                self[dest + i] = self[src.start + i];
            }
        } else {
            for i in (0..n).rev() {
                self[dest + i] = self[src.start + i];
            }
        }
    }

    /// Chunks allocated.
    #[cfg(test)]
    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Chunks an array of the current length needs.
    #[cfg(test)]
    pub(crate) fn chunks_needed(&self) -> usize {
        self.len.div_ceil(Self::PER_CHUNK)
    }
}

impl<T: Copy> Index<usize> for ChunkVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        let (chunk, at) = Self::split(i);
        // BOUNDS: an index at or past `len` fails one of the two checks,
        // as a slice index would: every chunk holds exactly what was written.
        &self.chunks[chunk][at]
    }
}

impl<T: Copy> IndexMut<usize> for ChunkVec<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        let (chunk, at) = Self::split(i);
        // BOUNDS: as in `index`.
        &mut self.chunks[chunk][at]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `ChunkVec` and a `Vec` through the same growth and copies
    /// around element `at`.
    fn check_copies(at: usize) {
        let mut c = ChunkVec::<u64>::new();
        let mut v = Vec::new();
        let n = at + 300;
        c.grow(n, 0);
        v.resize(n, 0);
        for i in 0..n {
            c[i] = i as u64;
            v[i] = i as u64;
        }
        // Shifts up and down by one (an insert and a removal in a ranked
        // block) and a copy between distant blocks, each across `at`.
        for (src, dest) in [
            (at - 10..at + 10, at - 9),
            (at - 9..at + 11, at - 10),
            (at - 100..at - 36, at + 100),
            (at + 100..at + 164, at - 64),
        ] {
            c.copy_within(src.clone(), dest);
            v.copy_within(src, dest);
            assert!((0..n).all(|i| c[i] == v[i]), "copies around {at}");
        }
        assert_eq!((c.len(), c.chunk_count()), (n, c.chunks_needed()));
        assert_eq!(c.get(n), None);
        assert_eq!(c.get(n - 1), Some(&v[n - 1]));
    }

    /// Every chunk of `c` is one `CHUNK_BYTES` allocation.
    fn all_full<T: Copy>(c: &ChunkVec<T>) -> bool {
        let full = ChunkVec::<T>::CAPACITY;
        c.chunks.iter().all(|chunk| chunk.capacity() == full)
    }

    #[test]
    fn one_chunk_reads_and_copies_like_a_vec() {
        check_copies(200);
        let mut c = ChunkVec::<u64>::new();
        c.grow(300, 0);
        assert_eq!(
            c.chunks[0].capacity(),
            300,
            "a small array, a small first chunk"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "touches two 1 MiB chunks; no unsafe to check")]
    fn copies_across_a_chunk_boundary_read_before_they_write() {
        check_copies(ChunkVec::<u64>::PER_CHUNK);
        // Growth in steps that end on, before and after a boundary.
        let mut c = ChunkVec::<u32>::new();
        let per = ChunkVec::<u32>::PER_CHUNK;
        for step in [per - 1, 1, 1, per, per - 1] {
            let start = c.len();
            c.grow(step, start as u32);
            assert_eq!(c[c.len() - 1], start as u32);
            assert_eq!(c.chunk_count(), c.chunks_needed());
        }
        assert_eq!(c.len(), 3 * per);
        assert_eq!(
            (c[per - 2], c[per - 1], c[per], c[2 * per]),
            (0, per as u32 - 1, per as u32, per as u32 + 1)
        );
        assert!(all_full(&c), "equal chunks");
        // A first chunk that doubles its way up ends at the full size too.
        let mut d = ChunkVec::<u64>::new();
        for _ in 0..ChunkVec::<u64>::PER_CHUNK / 256 + 1 {
            d.grow(256, 0);
        }
        assert_eq!(d.chunk_count(), 2);
        assert!(all_full(&d));
    }
}
