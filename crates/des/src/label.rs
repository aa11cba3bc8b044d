//! Labels as rows: an activity label or a resource name is a template,
//! a prefix and two integers, rendered to text only when something reads
//! it (DESIGN.md §10, "A label is a row").
//!
//! A template is the fixed text of a family of labels with `{}` holes
//! for its integer arguments — `"node{}.membus"`, `"c{}.r{}.ex"` — and a
//! prefix is a job's namespace (`j3.`), written in front of the whole
//! label. A simulation interns both once ([`crate::Simulation::template`],
//! [`crate::Simulation::prefix`]); registering an activity then pushes a
//! 16-byte [`Label`] and formats nothing. Free text (anything `Display`)
//! is still accepted: it is written into the simulation's text arena
//! once and the row points at it.

use crate::engine::index32;
use std::fmt::{self, Write as _};
use std::ops::Range;

/// A template interned in a simulation (see
/// [`crate::Simulation::template`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tpl(u32);

/// A label prefix interned in a simulation (see
/// [`crate::Simulation::prefix`]); [`Prefix::NONE`] is the empty one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prefix(u32);

impl Prefix {
    /// No prefix.
    pub const NONE: Prefix = Prefix(0);
}

/// The `body` of a row whose text is a range of the text arena, held in
/// its two arguments.
const TEXT: u32 = u32::MAX;

/// An activity label or resource name as numbers: `prefix`, then the
/// template `body` with its holes filled by `args` in order (or, for
/// free text, the arena range `args[0]..args[1]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label {
    body: u32,
    prefix: u32,
    args: [u32; 2],
}

impl Label {
    /// The label `prefix` + `tpl` with its holes filled by `args`, in
    /// order; arguments past the template's holes are ignored.
    pub fn new(prefix: Prefix, tpl: Tpl, args: [u32; 2]) -> Label {
        Label {
            body: tpl.0,
            prefix: prefix.0,
            args,
        }
    }

    /// The index of the label's template, `None` for free text.
    pub(crate) fn template(self) -> Option<usize> {
        (self.body != TEXT).then_some(self.body as usize)
    }

    /// The same label under another prefix.
    pub(crate) fn under(self, prefix: Prefix) -> Label {
        Label {
            prefix: prefix.0,
            ..self
        }
    }
}

/// A label argument: an index the caller counts in `usize` (a rank, a
/// node, a round) as the `u32` a row stores. Panics past `u32::MAX`.
pub fn arg(n: usize) -> u32 {
    index32(n, "as a label argument")
}

/// Write `template` with its holes filled by `args`, in order — the
/// body of every template row as it renders.
pub fn fill(out: &mut impl fmt::Write, template: &str, args: [u32; 2]) -> fmt::Result {
    let mut pieces = template.split("{}");
    out.write_str(pieces.next().unwrap_or(""))?;
    for (piece, arg) in pieces.zip(args) {
        // Decimal digits by hand: a trace renders every label it names,
        // and `Formatter`'s integer path is most of the cost of one.
        let (mut digits, mut n, mut at) = ([0u8; 10], arg, 10);
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        out.write_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"))?;
        out.write_str(piece)?;
    }
    Ok(())
}

/// What [`crate::Simulation::activity`] and
/// [`crate::Simulation::add_resource`] take for a name: a [`Label`] row
/// as it is, or any `Display` value, written into the text arena once.
pub trait IntoLabel {
    /// This name as a row of `names`.
    fn into_label(self, names: &mut Names) -> Label;
}

impl IntoLabel for Label {
    fn into_label(self, _: &mut Names) -> Label {
        self
    }
}

impl<T: fmt::Display> IntoLabel for T {
    fn into_label(self, names: &mut Names) -> Label {
        let start = names.text.len();
        write!(names.text, "{self}").expect("a Display impl returned an error");
        let range = [
            index32(start, "text bytes"),
            index32(names.text.len(), "text bytes"),
        ];
        Label {
            body: TEXT,
            prefix: Prefix::NONE.0,
            args: range,
        }
    }
}

/// What a simulation's label rows point into: its templates, its
/// prefixes (prefix `p` is `prefixes[p - 1]`, a range of `text`) and the
/// text of every free-text label.
#[derive(Debug, Clone, Default)]
pub struct Names {
    templates: Vec<&'static str>,
    prefixes: Vec<Range<u32>>,
    text: String,
}

impl Names {
    /// The handle of `template`, interned if new.
    ///
    /// # Panics
    /// Panics if the template has more than two holes.
    pub(crate) fn template(&mut self, template: &'static str) -> Tpl {
        if let Some(i) = self.templates.iter().position(|&t| t == template) {
            return Tpl(i as u32);
        }
        assert!(
            template.matches("{}").count() <= 2,
            "label template `{template}` has more than two holes"
        );
        self.templates.push(template);
        Tpl(index32(self.templates.len() - 1, "label templates"))
    }

    /// The handle of `prefix`, interned if new.
    pub(crate) fn prefix(&mut self, prefix: &str) -> Prefix {
        if prefix.is_empty() {
            return Prefix::NONE;
        }
        let known = (self.prefixes.iter()).position(|r| self.slice(r.clone()) == prefix);
        let i = known.unwrap_or_else(|| {
            let start = index32(self.text.len(), "text bytes");
            self.text.push_str(prefix);
            self.prefixes
                .push(start..index32(self.text.len(), "text bytes"));
            self.prefixes.len() - 1
        });
        Prefix(index32(i + 1, "label prefixes"))
    }

    fn slice(&self, range: Range<u32>) -> &str {
        &self.text[range.start as usize..range.end as usize]
    }

    /// The text `label` reads as, rendered when displayed.
    pub(crate) fn show(&self, label: Label) -> Shown<'_> {
        Shown { names: self, label }
    }

    /// Per template, the class ([`crate::resource_class`]) of every
    /// resource named by it when the template alone decides it — its
    /// text after the last hole holds a `.` — else `None`.
    pub(crate) fn fixed_classes(&self) -> Vec<Option<&'static str>> {
        let tail = |t: &'static str| t.rsplit("{}").next().unwrap_or(t);
        let class = |t| tail(t).rsplit_once('.').map(|(_, class)| class);
        self.templates.iter().map(|&t| class(t)).collect()
    }

    /// `rows` as a [`Fragment`](crate::Fragment) keeps them: every
    /// prefix dropped, free text copied into `text` and pointed at
    /// there. Template handles stay this table's.
    pub(crate) fn copy_out(&self, rows: &[Label], text: &mut String) -> Vec<Label> {
        let copy = |&l: &Label| match l.body {
            TEXT => {
                let start = index32(text.len(), "text bytes");
                text.push_str(self.slice(l.args[0]..l.args[1]));
                let args = [start, index32(text.len(), "text bytes")];
                Label { args, ..l }.under(Prefix::NONE)
            }
            _ => l.under(Prefix::NONE),
        };
        rows.iter().map(copy).collect()
    }

    /// Append copied-out `rows` to `out` under `prefix`: each template
    /// of `templates` (the copied table's) is interned here, and free
    /// text is taken from `text` into this arena.
    pub(crate) fn take_in(
        &mut self,
        rows: &[Label],
        templates: &[&'static str],
        text: &str,
        prefix: Prefix,
        out: &mut Vec<Label>,
    ) {
        // A simulation built like the copied one holds its templates
        // under the same handles: then nothing is mapped.
        let same = self.templates.starts_with(templates);
        let tpls: Vec<u32> = match same {
            true => Vec::new(),
            false => templates.iter().map(|t| self.template(t).0).collect(),
        };
        let base = index32(self.text.len(), "text bytes");
        self.text.push_str(text);
        index32(self.text.len(), "text bytes");
        out.reserve(rows.len());
        out.extend(rows.iter().map(|l| {
            let row = match l.body {
                TEXT => Label {
                    args: l.args.map(|a| a + base),
                    ..*l
                },
                t if !same => Label {
                    body: tpls[t as usize],
                    ..*l
                },
                _ => *l,
            };
            row.under(prefix)
        }));
    }

    /// The template table, in handle order.
    pub(crate) fn templates(&self) -> &[&'static str] {
        &self.templates
    }
}

/// A label with the table it reads through: `Display` renders it.
pub(crate) struct Shown<'a> {
    names: &'a Names,
    label: Label,
}

impl fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (names, label) = (self.names, self.label);
        if let Some(p) = label.prefix.checked_sub(1) {
            f.write_str(names.slice(names.prefixes[p as usize].clone()))?;
        }
        if label.body == TEXT {
            return f.write_str(names.slice(label.args[0]..label.args[1]));
        }
        fill(f, names.templates[label.body as usize], label.args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_label_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Label>(), 16);
    }

    #[test]
    fn rows_render_their_prefix_template_and_arguments() {
        let mut names = Names::default();
        let [io, ost, start, bus] =
            ["io.rank{}.ost{}", "ost{}", "start", "node{}.membus"].map(|t| names.template(t));
        assert_eq!(names.template("ost{}"), ost, "interned once");
        let j3 = names.prefix("j3.");
        assert_eq!(names.prefix("j3."), j3);
        assert_eq!(names.prefix(""), Prefix::NONE);
        let show = |names: &Names, l| names.show(l).to_string();
        assert_eq!(show(&names, Label::new(j3, io, [7, 2])), "j3.io.rank7.ost2");
        assert_eq!(
            show(&names, Label::new(Prefix::NONE, ost, [17, 99])),
            "ost17"
        );
        assert_eq!(show(&names, Label::new(j3, start, [0, 0])), "j3.start");
        assert_eq!(show(&names, Label::new(j3, ost, [0, 0])), "j3.ost0");
        let widest = Label::new(Prefix::NONE, io, [u32::MAX, 10]);
        assert_eq!(show(&names, widest), "io.rank4294967295.ost10");
        let text = "nœud→{}".into_label(&mut names);
        assert_eq!(show(&names, text), "nœud→{}");
        assert_eq!(show(&names, text.under(j3)), "j3.nœud→{}");
        let classes = names.fixed_classes();
        let class = |l: Label| l.template().and_then(|t| classes[t]);
        let none = Prefix::NONE;
        assert_eq!(class(Label::new(none, bus, [4, 0])), Some("membus"));
        assert_eq!(class(Label::new(j3, io, [1, 1])), None);
        assert_eq!(class(Label::new(none, ost, [1, 1])), None);
        assert_eq!(class(text), None);
    }

    #[test]
    fn copied_out_rows_come_back_under_a_new_prefix() {
        let mut from = Names::default();
        let tpl = from.template("c{}.r{}.io");
        let j0 = from.prefix("j0.");
        let free = "free".into_label(&mut from);
        let rows = [Label::new(j0, tpl, [1, 2]), free.under(j0)];
        let mut text = String::new();
        let copied = from.copy_out(&rows, &mut text);
        // Another table, with a template of its own first and text.
        let mut to = Names::default();
        to.template("ost{}");
        "x".into_label(&mut to);
        let j5 = to.prefix("j5.");
        let mut out = Vec::new();
        to.take_in(&copied, from.templates(), &text, j5, &mut out);
        let shown: Vec<String> = out.iter().map(|&l| to.show(l).to_string()).collect();
        assert_eq!(shown, ["j5.c1.r2.io", "j5.free"]);
    }
}
