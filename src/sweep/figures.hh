/**
 * @file
 * The paper's tables and figures as views over one finished campaign.
 *
 * A Figure names the (config, prefetch) cells its rows read and
 * renders its table from a CampaignResult. figureCampaign() builds the
 * one grid a set of figures reads, so every figure of a run comes from
 * the same simulated points (rabsweep --figures). Table 1 needs no
 * view: `rabsim --config hybrid --prefetch --print-config` prints it.
 */

#ifndef RAB_SWEEP_FIGURES_HH
#define RAB_SWEEP_FIGURES_HH

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/sim_config.hh"
#include "core/simulation.hh"
#include "sweep/campaign.hh"
#include "workloads/suite.hh"

namespace rab
{

/** A (config, prefetch) column of the figure grid. */
using FigureCell = std::pair<RunaheadConfig, bool>;

/**
 * The rows one figure prints from a finished campaign: the suite
 * workloads the campaign ran, in suite order, and each row's cells.
 * Holds a reference to @p campaign, which must outlive it.
 */
class FigureRows
{
  public:
    /** @p medium_high keeps only the medium+high intensity rows. */
    FigureRows(const CampaignResult &campaign, bool medium_high);

    const std::vector<WorkloadSpec> &workloads() const { return workloads_; }

    /** The first ok single-core point of @p workload under @p config
     *  and @p prefetch. Panics when the campaign holds none: a figure
     *  never prints a cell it did not simulate. */
    const SimResult &get(const WorkloadSpec &workload,
                         RunaheadConfig config, bool prefetch) const;

  private:
    const CampaignResult &campaign_;
    std::vector<WorkloadSpec> workloads_;
};

/** One paper table or figure as a view over a campaign. */
struct Figure
{
    std::string name;              ///< table2, fig1-fig5, fig9-fig18.
    std::string title;             ///< Heading, e.g. "Figure 9: ...".
    bool mediumHigh = false;       ///< Rows: medium+high, else the suite.
    std::vector<FigureCell> cells; ///< What its rows read.
    /** The table and summary lines below the heading. */
    std::function<std::string(const FigureRows &rows)> render;
};

/** Every figure in paper order: table2, fig1-fig5, fig9-fig18. */
const std::vector<Figure> &paperFigures();

/** The figure named @p name; nullptr for none. */
const Figure *findFigure(const std::string &name);

/**
 * The one campaign @p figures read, at CampaignSpec's default sizing.
 * Workloads: the whole suite when any figure's rows need it, else the
 * medium+high ones, in suite order, narrowed to @p workloads when that
 * is not empty; its names resolve through findWorkload. Variants: the
 * union of the figures' cells in kRunaheadConfigNames order, no-PF
 * first and then PF. Named after the figure when there is one, else
 * "figures". Throws std::runtime_error naming a @p workloads entry
 * that is no workload or that no figure has a row for.
 */
CampaignSpec figureCampaign(const std::vector<const Figure *> &figures,
                            const std::vector<std::string> &workloads);

/** @p figure rendered from @p campaign: an "=== title ===" heading, a
 *  blank line, its table and its summary lines. Panics when the
 *  campaign lacks one of its cells. */
std::string renderFigure(const Figure &figure,
                         const CampaignResult &campaign);

} // namespace rab

#endif // RAB_SWEEP_FIGURES_HH
