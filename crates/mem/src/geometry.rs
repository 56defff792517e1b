//! Image geometry shared by the scheduler, simulator and cost models.

use std::fmt;

/// Frame dimensions and pixel width.
///
/// The paper evaluates 320p (480×320) and 1080p (1920×1080) frames with a
/// fixed pixel datapath; this reproduction's evaluation uses 16-bit
/// pixels.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ImageGeometry {
    /// Frame width in pixels (the scheduler's `W`).
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Bits per pixel.
    pub pixel_bits: u32,
}

impl ImageGeometry {
    /// The paper's 320p resolution (480×320).
    pub fn p320() -> ImageGeometry {
        ImageGeometry {
            width: 480,
            height: 320,
            pixel_bits: 16,
        }
    }

    /// The paper's 1080p resolution (1920×1080).
    pub fn p1080() -> ImageGeometry {
        ImageGeometry {
            width: 1920,
            height: 1080,
            pixel_bits: 16,
        }
    }

    /// Pixels per frame.
    pub fn pixels(&self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// Bits in one image row (one line-buffer line).
    pub fn row_bits(&self) -> u64 {
        self.width as u64 * self.pixel_bits as u64
    }
}

impl fmt::Display for ImageGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}@{}b", self.width, self.height, self.pixel_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let p = ImageGeometry::p320();
        assert_eq!((p.width, p.height), (480, 320));
        assert_eq!(p.pixels(), 153_600);
        assert_eq!(p.row_bits(), 7_680);
        let q = ImageGeometry::p1080();
        assert_eq!((q.width, q.height), (1920, 1080));
        assert_eq!(q.row_bits(), 30_720);
    }
}
