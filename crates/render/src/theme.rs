//! Color palette and typography constants shared by the chart renderers.

/// Categorical series palette (colorblind-aware, dark-first).
pub const SERIES: &[&str] = &[
    "#4C78A8", "#F58518", "#54A24B", "#E45756", "#72B7B2", "#EECA3B", "#B279A2", "#FF9DA6",
    "#9D755D", "#BAB0AC",
];

/// Primary mark color.
pub const PRIMARY: &str = SERIES[0];
/// Secondary mark color (after/compare series).
pub const SECONDARY: &str = SERIES[1];
/// Insight highlight color (the red rows of the paper's Figure 1).
pub const HIGHLIGHT: &str = "#C0392B";
/// Axis/frame stroke.
pub const AXIS: &str = "#888888";
/// Grid-line stroke.
pub const GRID: &str = "#E0E0E0";
/// Label text fill.
pub const TEXT: &str = "#333333";
/// Font stack for SVG text.
pub const FONT: &str = "ui-sans-serif, system-ui, sans-serif";

/// Color of the `i`-th series.
pub fn series_color(i: usize) -> &'static str {
    SERIES[i % SERIES.len()]
}

/// A computed color, spelled `rgb(r,g,b)` in place: a heat map asks for
/// one per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rgb {
    text: [u8; 16],
    len: usize,
}

impl Rgb {
    /// The color a linear blend `from + (to - from)·t` of each channel
    /// gives, truncated to a byte.
    fn blend(from: [f64; 3], to: [f64; 3], t: f64) -> Rgb {
        let mut rgb = Rgb { text: *b"rgb(            ", len: 4 };
        let mut put = |byte: u8| {
            if let Some(slot) = rgb.text.get_mut(rgb.len) {
                *slot = byte;
                rgb.len += 1;
            }
        };
        for (i, (from, to)) in from.into_iter().zip(to).enumerate() {
            let channel = (from + (to - from) * t) as u8;
            if i > 0 {
                put(b',');
            }
            if channel >= 100 {
                put(b'0' + channel / 100);
            }
            if channel >= 10 {
                put(b'0' + channel / 10 % 10);
            }
            put(b'0' + channel % 10);
        }
        put(b')');
        rgb
    }

    /// The CSS spelling.
    pub fn as_str(&self) -> &str {
        self.text.get(..self.len).and_then(|text| std::str::from_utf8(text).ok()).unwrap_or_default()
    }
}

/// Sequential color for a value in `[0, 1]` (light blue → dark blue);
/// used by heat maps and hexbins.
pub fn sequential(t: f64) -> Rgb {
    Rgb::blend([237.0, 248.0, 255.0], [30.0, 80.0, 150.0], t.clamp(0.0, 1.0))
}

/// Diverging color for a correlation in `[-1, 1]` (blue → white → red).
pub fn diverging(r: f64) -> Rgb {
    let r = r.clamp(-1.0, 1.0);
    let to = if r >= 0.0 { [178.0, 24.0, 43.0] } else { [33.0, 102.0, 172.0] };
    Rgb::blend([255.0; 3], to, r.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_wraps() {
        assert_eq!(series_color(0), SERIES[0]);
        assert_eq!(series_color(SERIES.len()), SERIES[0]);
    }

    #[test]
    fn sequential_endpoints() {
        assert_eq!(sequential(0.0).as_str(), "rgb(237,248,255)");
        assert_eq!(sequential(1.0).as_str(), "rgb(30,80,150)");
        assert_eq!(sequential(0.97).as_str(), "rgb(36,85,153)");
        // Clamped.
        assert_eq!(sequential(2.0), sequential(1.0));
    }

    #[test]
    fn diverging_endpoints() {
        assert_eq!(diverging(0.0).as_str(), "rgb(255,255,255)");
        assert_eq!(diverging(1.0).as_str(), "rgb(178,24,43)");
        assert_eq!(diverging(-1.0).as_str(), "rgb(33,102,172)");
        assert_eq!(diverging(f64::NAN).as_str(), "rgb(0,0,0)");
    }
}
