//! Pixel images for the functional executor and simulator.

use std::fmt;

/// A 2-D grayscale image with `i64` pixels (the software model of the
/// 16-bit hardware datapath; kernels never overflow the wider type).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Image {
    width: u32,
    height: u32,
    data: Vec<i64>,
}

impl Image {
    /// Creates a zero-filled image.
    pub fn new(width: u32, height: u32) -> Image {
        Image {
            width,
            height,
            data: vec![0; (width * height) as usize],
        }
    }

    /// Builds an image from a generator function `f(x, y)`.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> i64) -> Image {
        let mut img = Image::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.set(x, y, f(x, y));
            }
        }
        img
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds; use [`Image::get_clamped`] for stencil
    /// sampling.
    #[track_caller]
    pub fn get(&self, x: u32, y: u32) -> i64 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[(y * self.width + x) as usize]
    }

    /// Pixel at `(x, y)` with clamp-to-edge sampling for out-of-range
    /// coordinates (the boundary behaviour of both the golden executor
    /// and the generated hardware).
    pub fn get_clamped(&self, x: i64, y: i64) -> i64 {
        let cx = x.clamp(0, self.width as i64 - 1) as u32;
        let cy = y.clamp(0, self.height as i64 - 1) as u32;
        self.data[(cy * self.width + cx) as usize]
    }

    /// Sets pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[track_caller]
    pub fn set(&mut self, x: u32, y: u32, v: i64) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[(y * self.width + x) as usize] = v;
    }

    /// Raw row-major pixel data.
    pub fn data(&self) -> &[i64] {
        &self.data
    }

    /// Pixels in raster order (row-major, the order the generated
    /// hardware streams a frame) — what stream comparisons consume.
    pub fn raster(&self) -> impl Iterator<Item = i64> + '_ {
        self.data.iter().copied()
    }

    /// Builds an image from a raster-order pixel stream.
    ///
    /// # Panics
    ///
    /// Panics when the stream length is not `width * height`.
    #[track_caller]
    pub fn from_raster(width: u32, height: u32, pixels: impl IntoIterator<Item = i64>) -> Image {
        let data: Vec<i64> = pixels.into_iter().collect();
        assert_eq!(
            data.len(),
            (width * height) as usize,
            "raster stream length must match the frame"
        );
        Image {
            width,
            height,
            data,
        }
    }

    /// Number of pixels that differ from `other`.
    pub fn diff_count(&self, other: &Image) -> usize {
        assert_eq!(self.width, other.width);
        assert_eq!(self.height, other.height);
        self.data
            .iter()
            .zip(&other.data)
            .filter(|(a, b)| a != b)
            .count()
    }
}

impl fmt::Display for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Image({}x{})", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let img = Image::from_fn(4, 3, |x, y| (y * 4 + x) as i64);
        assert_eq!(img.get(0, 0), 0);
        assert_eq!(img.get(3, 2), 11);
        assert_eq!(img.data().len(), 12);
    }

    #[test]
    fn clamped_sampling() {
        let img = Image::from_fn(4, 3, |x, y| (y * 4 + x) as i64);
        assert_eq!(img.get_clamped(-5, -5), 0);
        assert_eq!(img.get_clamped(10, 10), 11);
        assert_eq!(img.get_clamped(2, 1), 6);
    }

    #[test]
    fn diff_count() {
        let a = Image::from_fn(4, 4, |x, _| x as i64);
        let mut b = a.clone();
        assert_eq!(a.diff_count(&b), 0);
        b.set(1, 1, 99);
        b.set(2, 2, 99);
        assert_eq!(a.diff_count(&b), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn strict_get_panics() {
        let img = Image::new(2, 2);
        let _ = img.get(2, 0);
    }

    #[test]
    fn raster_round_trips() {
        let img = Image::from_fn(4, 3, |x, y| (y * 4 + x) as i64);
        let stream: Vec<i64> = img.raster().collect();
        assert_eq!(stream, (0..12).collect::<Vec<i64>>());
        let back = Image::from_raster(4, 3, stream);
        assert_eq!(back, img);
    }

    #[test]
    #[should_panic(expected = "raster stream length")]
    fn from_raster_rejects_short_streams() {
        let _ = Image::from_raster(4, 3, 0..5);
    }
}
